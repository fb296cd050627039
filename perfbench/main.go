// Command perfbench is the ioatsim benchmark: host time to reproduce the
// paper's figures, ioatd job latency, and host CPU time per simulator
// layer. It runs one workload per invocation:
//
//	bash perfbench/run.sh --workload micro --seed 7 --seconds 24 --trace 0
//
// and prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end-to-end ones, measured untraced; with --trace 1 a
// run makes an untraced and a traced pass over the same inputs and
// reports the per-layer metrics. The line before it carries the
// provenance (commit, Go version, CPUs, seed) and sample counts. See
// README.md for the workloads and for which layer metric should move
// which end-to-end metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// checkoutRoot is the working directory run.sh starts the program in:
// the root of the checkout, where testdata/golden lives.
const checkoutRoot = "."

// workloads in report order; figureSets holds the simulation ones.
var workloads = []string{"micro", "datacenter", "pvfs", "service"}

// unit is one metric's name and unit.
type unit struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or of ioatd sees,
// measured untraced and reported on every workload. The times are the
// process's CPU time: on a shared VM, wall time moves with the load of
// other guests (steal) several times more than CPU time does, so wall
// times are reported among the per-layer metrics, without a bound.
var endToEnd = []unit{
	{"cpu_s", "s"},
	{"events_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists every per-layer metric a traced run reports. Metrics
// of a layer, figure or service path a workload does not run read 0.
func perLayer() []unit {
	var out []unit
	add := func(name, u string) { out = append(out, unit{name, u}) }
	add("wall_s", "s")
	add("events_per_s", "1/s")
	add("op_p50_ms", "ms")
	for _, l := range layers {
		add(l+".self_s", "s")
		add(l+".share", "ratio")
	}
	for _, m := range []string{"mem.touch_s", "mem.access_lines_s", "mem.random_cost_s", "mem.invalidate_s", "mem.install_s"} {
		add(m, "s")
	}
	add("sim.ns_per_event", "ns")
	add("sim.events", "count")
	add("sim.proc_switches", "count")
	add("sim.peak_pending", "count")
	add("runtime.gc_s", "s")
	add("runtime.allocs_per_event", "count")
	add("runtime.heap_peak_mb", "MB")
	for _, p := range internalPackages() {
		add("pkg."+p+".self_s", "s")
	}
	for _, w := range workloads {
		for _, id := range figureSets[w] {
			add("bench."+id+".wall_s", "s")
		}
	}
	add("sweep.hits", "count")
	add("sweep.misses", "count")
	add("sweep.hit_ratio", "ratio")
	add("sweep.evictions", "count")
	add("serve.queue_wait_ms", "ms")
	add("serve.run_ms", "ms")
	add("serve.http_ms", "ms")
	add("serve.rejected", "count")
	add("warm_job_p50_ms", "ms")
	add("warm_job_p90_ms", "ms")
	add("cold_job_p50_ms", "ms")
	add("cold_job_p90_ms", "ms")
	add("jobs_per_s", "1/s")
	add("error_rate", "ratio")
	add("trace.overhead", "ratio")
	return out
}

// runCfg is one invocation's settings.
type runCfg struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string // reports, spans, profiles, cross-run check store
	spans    *spanLog
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	digest            string             // of the measured sources
	values            map[string]float64 // metric name -> value
	info              map[string]any     // sample counts and failures, for the report line
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, info: map[string]any{}}
}

// fail records one failed operation with its reason.
func (o *outcome) fail(reason string) {
	o.failed++
	fails, _ := o.info["failures"].([]string)
	if len(fails) < 20 {
		o.info["failures"] = append(fails, reason)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fl.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = fl.Uint64("seed", 1, "workload seed")
		seconds  = fl.Int("seconds", 24, "seconds of measurement")
		traced   = fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		commit   = fl.String("commit", "unknown", "commit of the measured tree")
		out      = fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory for reports, spans and profiles")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloads, ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	c := runCfg{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traced == 1,
		out:      *out,
	}
	if c.trace {
		c.spans = newSpanLog()
	}
	var o *outcome
	var err error
	if c.workload == "service" {
		o, err = runService(c)
	} else {
		o, err = runFigures(c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.values["peak_rss_mb"] = peakRSSMB()
	if o.attempted > 0 {
		o.values["error_rate"] = float64(o.failed) / float64(o.attempted)
	}

	names := endToEnd
	if c.trace {
		names = perLayer()
	}
	res := result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, m := range names {
		res.Metrics[m.name] = metric{Value: o.values[m.name], Unit: m.unit}
	}
	tag := fmt.Sprintf("%s-s%d-t%d", c.workload, c.seed, *traced)
	report := map[string]any{
		"workload":      c.workload,
		"seed":          c.seed,
		"seconds":       *seconds,
		"trace":         *traced,
		"commit":        *commit,
		"source_digest": o.digest,
		"go_version":    runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"timestamp_utc": time.Now().UTC().Format(time.RFC3339),
		"details":       o.info,
		"result":        res,
	}
	if c.spans != nil {
		path := filepath.Join(c.out, "spans-"+tag+".json")
		if err := c.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			return 1
		}
		report["spans"] = path
	}
	rb, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join(c.out, "report-"+tag+".json"), rb, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, m := range names {
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(stdout, "{\"report\":%s}\n", rb)
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return 0
}

// sourceDigest hashes the Go sources, module files and golden tables of
// the checkout. It identifies the measured code when the checkout is not
// a git repository, and keys the cross-run output checks.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" &&
			!(strings.HasSuffix(name, ".txt") && filepath.Base(filepath.Dir(path)) == "golden") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// settle collects set-up garbage and returns it to the OS, so every
// timed phase starts from the same heap state.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// endSetup settles the heap and returns setup_s: the CPU time from
// process start to now, just before the first timed operation.
func endSetup() float64 {
	settle()
	return cpuSeconds()
}

// cpuSeconds is the user and system CPU time of every thread of the
// process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// checkStore remembers, per source digest and seed, what each output
// looked like on earlier runs, so outputs that must repeat exactly
// across the runs of one commit are compared across processes.
type checkStore struct {
	path    string
	prefix  string // digest/seed/
	entries map[string]string
}

// openCheckStore hashes the sources, recording the digest in o, and
// loads the check store. It is called after the timed passes, so the
// walk over the checkout does not count as set-up.
func openCheckStore(c runCfg, o *outcome) (*checkStore, error) {
	digest, err := sourceDigest(checkoutRoot)
	if err != nil {
		return nil, err
	}
	o.digest = digest
	s := &checkStore{
		path:    filepath.Join(c.out, "checks.json"),
		prefix:  digest + "/" + strconv.FormatUint(c.seed, 10) + "/",
		entries: map[string]string{},
	}
	if b, err := os.ReadFile(s.path); err == nil {
		if json.Unmarshal(b, &s.entries) != nil {
			s.entries = map[string]string{} // a corrupt store is rebuilt
		}
	}
	return s, nil
}

// check compares value with the one stored under key for this digest
// and seed, storing it when there is none. It reports whether they
// agree.
func (s *checkStore) check(key, value string) bool {
	old, ok := s.entries[s.prefix+key]
	if !ok {
		s.entries[s.prefix+key] = value
		return true
	}
	return old == value
}

func (s *checkStore) save() error {
	b, err := json.Marshal(s.entries)
	if err != nil {
		return err
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.path)
}
