#!/usr/bin/env bash
# Builds the perfbench program from this checkout's sources and runs it
# from the checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload micro --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache,
# binary, reports, spans, profiles) stays under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit="$(git -C "$root" rev-parse HEAD)"
fi

cd "$root"
exec "$out/perfbench" --commit "$commit" "$@"
