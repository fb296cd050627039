package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"ioatsim/internal/bench"
)

// The repository root, seen from this package's directory.
const repoRoot = ".."

// TestLayerMapCoversInternalPackages fails when a package is added under
// internal/ without a layer, or a mapped package disappears.
func TestLayerMapCoversInternalPackages(t *testing.T) {
	dirs, err := os.ReadDir(filepath.Join(repoRoot, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, d := range dirs {
		if !d.IsDir() || d.Name() == "analysis" {
			continue
		}
		files, err := filepath.Glob(filepath.Join(repoRoot, "internal", d.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				found[d.Name()] = true
				break
			}
		}
	}
	for p := range found {
		if _, ok := packageLayer[p]; !ok {
			t.Errorf("internal/%s has no layer in packageLayer", p)
		}
	}
	for p := range packageLayer {
		if !found[p] {
			t.Errorf("packageLayer maps %s, which is not a package under internal/", p)
		}
	}
}

func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"ioatsim/internal/mem.(*Cache).touch":                            "mem",
		"ioatsim/internal/sim.(*Simulator).RunUntil":                     "sim",
		"ioatsim/internal/tcp.(*Sender).step":                            "transport",
		"ioatsim/internal/datacenter.appWork":                            "apps",
		"ioatsim/internal/sweep.CachedRunCtx[go.shape.struct { X int }]": "harness",
		"runtime.mallocgc":                                               "runtime",
		"net/http.(*conn).serve":                                         "runtime",
		"encoding/json.(*decodeState).object":                            "runtime",
		"main.runPass":                                                   "other",
		"ioatsim/internal/nosuch.F":                                      "other",
	} {
		if got, _ := classify(fn); got != want {
			t.Errorf("classify(%q) = %s, want %s", fn, got, want)
		}
	}
}

// TestMetricNames checks every emitted name against the allowed
// alphabet and against BENCHMARK.json, so the two cannot drift apart.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		have []unit
		spec []def
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer(), spec.PerLayer}} {
		seen := map[string]bool{}
		for _, m := range tc.have {
			if !valid.MatchString(m.name) {
				t.Errorf("%s metric %q has a character outside [A-Za-z0-9_.-]", tc.kind, m.name)
			}
			if seen[m.name] {
				t.Errorf("%s metric %q emitted twice", tc.kind, m.name)
			}
			seen[m.name] = true
		}
		if len(tc.spec) != len(tc.have) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the program emits %d", len(tc.spec), tc.kind, len(tc.have))
			continue
		}
		for i, m := range tc.have {
			if tc.spec[i].Name != m.name || tc.spec[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program emits %s (%s)",
					tc.kind, i, tc.spec[i].Name, tc.spec[i].Unit, m.name, m.unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, spec.Workloads[i].Name, w)
		}
	}
}

// TestFigureSetsSplitTheSuite: the three simulation workloads together
// run every registered figure exactly once.
func TestFigureSetsSplitTheSuite(t *testing.T) {
	count := map[string]int{}
	for _, ids := range figureSets {
		for _, id := range ids {
			count[id]++
		}
	}
	for _, r := range bench.Experiments() {
		if count[r.ID] != 1 {
			t.Errorf("figure %s is in %d workloads, want 1", r.ID, count[r.ID])
		}
		delete(count, r.ID)
	}
	for id := range count {
		t.Errorf("figure set names unknown figure %s", id)
	}
}

func TestGoldenPrecheck(t *testing.T) {
	r, ok := bench.Find("fig6")
	if !ok {
		t.Fatal("fig6 not registered")
	}
	if err := goldenPrecheck(repoRoot, r); err != nil {
		t.Fatalf("golden pre-check of fig6: %v", err)
	}
	want, err := os.ReadFile(filepath.Join(repoRoot, "testdata", "golden", "fig6.txt"))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := []byte(string(want))
	i := strings.IndexAny(string(corrupt), "123456789")
	corrupt[i] = '0'
	if err := checkGolden(repoRoot, "fig6", string(corrupt)); err == nil {
		t.Error("golden check accepted a corrupted table")
	}
	if err := checkGolden(repoRoot, "fig6", string(want)+"\n"); err == nil {
		t.Error("golden check accepted a table with an extra line")
	}
}

// TestProfileLayers records a real CPU profile under pprof labels and
// checks that every sample lands in a layer and the shares sum to 1.
func TestProfileLayers(t *testing.T) {
	tp, err := startTrace()
	if err != nil {
		t.Fatal(err)
	}
	pprof.Do(context.Background(), pprof.Labels("workload", "test", "figure", "spin"), func(context.Context) {
		x := 1.0
		for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
			x = math.Sqrt(x + 1)
		}
		sink = x
	})
	values := map[string]float64{}
	info := map[string]any{}
	if err := tp.finish(t.TempDir(), "test", 1000, values, info); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range layers {
		sum += values[l+".share"]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
	if fig := info["layer_s_by_figure"].(map[string]map[string]float64); len(fig["spin"]) == 0 {
		t.Errorf("no samples carry the figure label: %v", fig)
	}
}

var sink float64

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}
