package main

import (
	"sort"
	"strings"
)

// Layers, in report order. Every sample of the CPU profile lands in
// exactly one of them; "other" holds the benchmark's own code and any
// frame whose package is unknown.
var layers = []string{"mem", "sim", "transport", "apps", "harness", "runtime", "other"}

// packageLayer maps every package under internal/ that runs in a
// benchmark workload to its layer. internal/analysis (the static
// checker) never runs here and is left out; the test in layers_test.go
// fails when a new package appears without a mapping.
var packageLayer = map[string]string{
	"mem": "mem",
	"sim": "sim",

	"tcp": "transport", "nic": "transport", "link": "transport", "dma": "transport",
	"msg": "transport", "httpm": "transport", "cpu": "transport", "ioat": "transport",
	"host": "transport", "fault": "transport",

	"datacenter": "apps", "pvfs": "apps", "ramfs": "apps", "ipc": "apps",
	"workload": "apps", "rng": "apps",

	"bench": "harness", "sweep": "harness", "serve": "harness", "cost": "harness",
	"check": "harness", "trace": "harness", "metrics": "harness", "stats": "harness",
}

// internalPackages lists the mapped packages in sorted order.
func internalPackages() []string {
	out := make([]string, 0, len(packageLayer))
	for p := range packageLayer {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

const modulePrefix = "ioatsim/internal/"

// funcPackage returns the import path of a profiled function's package:
// "ioatsim/internal/mem.(*Cache).touch" -> "ioatsim/internal/mem",
// "net/http.(*conn).serve" -> "net/http", "runtime.mallocgc" -> "runtime".
func funcPackage(fn string) string {
	// Type arguments of generic instances may hold other paths.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// classify returns the layer of a function and, for a package under
// internal/, the package's short name ("" otherwise).
func classify(fn string) (layer, pkg string) {
	path := funcPackage(fn)
	if p, ok := strings.CutPrefix(path, modulePrefix); ok {
		if l, ok := packageLayer[p]; ok {
			return l, p
		}
		return "other", ""
	}
	first, _, _ := strings.Cut(path, "/")
	// Standard-library paths have no dot in their first element;
	// "main" is this benchmark and the root package is ioatsim itself.
	if path == "" || path == "main" || path == "ioatsim" || strings.Contains(first, ".") {
		return "other", ""
	}
	return "runtime", ""
}

// cumulativeFuncs are the cache-model entry points whose inclusive host
// time is reported on its own: the functions an optimisation of the
// memory model is most likely to move.
var cumulativeFuncs = map[string]string{
	modulePrefix + "mem.(*Cache).touch":       "mem.touch_s",
	modulePrefix + "mem.(*Cache).accessLines": "mem.access_lines_s",
	modulePrefix + "mem.(*Model).RandomCost":  "mem.random_cost_s",
	modulePrefix + "mem.(*Cache).Invalidate":  "mem.invalidate_s",
	modulePrefix + "mem.(*Cache).Install":     "mem.install_s",
}

// layerTimes is a CPU profile grouped by layer.
type layerTimes struct {
	totalNS  int64
	layerNS  map[string]int64
	pkgNS    map[string]int64            // flat time per internal package
	cumNS    map[string]int64            // inclusive time per cumulativeFuncs metric
	figureNS map[string]map[string]int64 // "figure" label -> layer -> flat time
}

// groupByLayer attributes each sample's CPU time to the package of its
// innermost frame (flat time) and to every cumulativeFuncs entry on its
// stack (inclusive time, counted once per sample).
func groupByLayer(p *cpuProfile) layerTimes {
	t := layerTimes{
		layerNS:  map[string]int64{},
		pkgNS:    map[string]int64{},
		cumNS:    map[string]int64{},
		figureNS: map[string]map[string]int64{},
	}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		ns := s.values[len(s.values)-1]
		t.totalNS += ns
		layer, pkg := "other", ""
		if len(s.locs) > 0 {
			if fns := p.stacks[s.locs[0]]; len(fns) > 0 {
				layer, pkg = classify(fns[0])
			}
		}
		t.layerNS[layer] += ns
		if pkg != "" {
			t.pkgNS[pkg] += ns
		}
		if fig := s.labels["figure"]; fig != "" {
			if t.figureNS[fig] == nil {
				t.figureNS[fig] = map[string]int64{}
			}
			t.figureNS[fig][layer] += ns
		}
		seen := map[string]bool{}
		for _, loc := range s.locs {
			for _, fn := range p.stacks[loc] {
				if m, ok := cumulativeFuncs[fn]; ok && !seen[m] {
					seen[m] = true
					t.cumNS[m] += ns
				}
			}
		}
	}
	return t
}
