package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

const (
	gcCPUMetric     = "/cpu/classes/gc/total:cpu-seconds"
	allocsMetric    = "/gc/heap/allocs:objects"
	heapBytesMetric = "/memory/classes/heap/objects:bytes"
)

// tracedPass records a CPU profile and runtime counters around one
// traced pass over a workload.
type tracedPass struct {
	prof      bytes.Buffer
	gc0, all0 float64
	stop      chan struct{}
	wg        sync.WaitGroup
	heapPeak  uint64
}

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// startTrace starts the CPU profile and a sampler of live heap bytes.
func startTrace() (*tracedPass, error) {
	t := &tracedPass{stop: make(chan struct{})}
	s := readMetrics(gcCPUMetric, allocsMetric)
	t.gc0, t.all0 = sampleFloat(s[0]), sampleFloat(s[1])
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if b := readMetrics(heapBytesMetric)[0].Value.Uint64(); b > t.heapPeak {
				t.heapPeak = b
			}
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return t, nil
}

// finish stops the profile and the sampler, stores the profile in dir,
// and reports the pass's per-layer metrics into values. events is the
// number of simulated events the pass dispatched.
func (t *tracedPass) finish(dir, tag string, events uint64, values map[string]float64, info map[string]any) error {
	pprof.StopCPUProfile()
	close(t.stop)
	t.wg.Wait()
	s := readMetrics(gcCPUMetric, allocsMetric)
	values["runtime.gc_s"] = sampleFloat(s[0]) - t.gc0
	if events > 0 {
		values["runtime.allocs_per_event"] = (sampleFloat(s[1]) - t.all0) / float64(events)
	}
	values["runtime.heap_peak_mb"] = float64(t.heapPeak) / (1 << 20)

	if err := os.WriteFile(filepath.Join(dir, "cpu-"+tag+".pprof"), t.prof.Bytes(), 0o644); err != nil {
		return err
	}
	p, err := parseProfile(t.prof.Bytes())
	if err != nil {
		return err
	}
	lt := groupByLayer(p)
	if lt.totalNS == 0 {
		return fmt.Errorf("cpu profile of the traced pass holds no samples")
	}
	for _, l := range layers {
		values[l+".self_s"] = float64(lt.layerNS[l]) / 1e9
		values[l+".share"] = float64(lt.layerNS[l]) / float64(lt.totalNS)
	}
	for pkg, ns := range lt.pkgNS {
		values["pkg."+pkg+".self_s"] = float64(ns) / 1e9
	}
	for m, ns := range lt.cumNS {
		values[m] = float64(ns) / 1e9
	}
	if events > 0 {
		values["sim.ns_per_event"] = float64(lt.layerNS["sim"]) / float64(events)
	}
	info["profile_samples"] = len(p.samples)
	info["profile_s"] = float64(lt.totalNS) / 1e9
	byFigure := map[string]map[string]float64{}
	for fig, m := range lt.figureNS {
		byFigure[fig] = map[string]float64{}
		for l, ns := range m {
			byFigure[fig][l] = float64(ns) / 1e9
		}
	}
	info["layer_s_by_figure"] = byFigure
	return nil
}
