package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"time"

	"ioatsim/internal/bench"
	"ioatsim/internal/sim"
)

// figureSets splits the 22 figures between the three simulation
// workloads, so the full-suite wall time is the sum of their wall_s.
var figureSets = map[string][]string{
	// ttcp streams: transport and streaming copies through the cache.
	"micro": {"fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6", "fig7a", "fig7b",
		"ablrss", "ablpin", "ablcoal", "extipc", "fault_loss"},
	// Most events and the deepest pending set; app work prices random lines.
	"datacenter": {"fig8a", "fig8b", "fig9", "ext3tier"},
	// PVFS reads beside writes: large striped copies and DMA invalidation.
	"pvfs": {"fig10a", "fig10b", "fig11a", "fig11b", "fig12"},
}

// figureScale is the ROADMAP's reference input size.
const figureScale = 0.25

// goldenConfig is the configuration testdata/golden/ was rendered at.
func goldenConfig() bench.Config {
	return bench.Config{Seed: 1, Scale: 0.05, Check: true}
}

// checkGolden compares a figure's table with its golden file.
func checkGolden(root, id, table string) error {
	want, err := os.ReadFile(filepath.Join(root, "testdata", "golden", id+".txt"))
	if err != nil {
		return fmt.Errorf("golden %s: %w", id, err)
	}
	if string(want) != table {
		return fmt.Errorf("golden %s: table differs from testdata/golden/%s.txt", id, id)
	}
	return nil
}

// runFigure calls the runner once, turning a panic (a failed invariant
// check, say) into an error.
func runFigure(r bench.Runner, cfg bench.Config) (res *bench.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%s panicked: %v", r.ID, rec)
		}
	}()
	return r.RunContext(cfg)
}

// goldenPrecheck runs the figure at the golden configuration and
// requires byte equality with its golden table.
func goldenPrecheck(root string, r bench.Runner) error {
	res, err := runFigure(r, goldenConfig())
	if err != nil {
		return err
	}
	return checkGolden(root, r.ID, res.String())
}

// figureRuns collects one figure's timed runs within a pass.
type figureRuns struct {
	walls    []float64 // seconds
	cpus     []float64 // process CPU seconds
	events   uint64    // of the first run; later runs must match
	switches uint64
	sum      string // SHA-256 of the first run's table
	bad      error  // first failure
}

// outputs is what must repeat exactly across runs at one seed: the
// table hash, the event count and the process switches.
func (f *figureRuns) outputs() string {
	return fmt.Sprintf("%s %d %d", f.sum, f.events, f.switches)
}

// pass is one round-robin pass over a workload's figures.
type pass struct {
	figs        map[string]*figureRuns
	runs        int
	executed    uint64 // events dispatched by every run
	peakPending uint64 // process high-water mark when the pass ended
}

// wallS and cpuS are the pass's wall and CPU time for the figure set:
// the sum over figures of each figure's median run.
func (p *pass) wallS(ids []string) float64 {
	var s float64
	for _, id := range ids {
		s += median(p.figs[id].walls)
	}
	return s
}

func (p *pass) cpuS(ids []string) float64 {
	var s float64
	for _, id := range ids {
		s += median(p.figs[id].cpus)
	}
	return s
}

func (p *pass) events(ids []string) (events, switches uint64) {
	for _, id := range ids {
		events += p.figs[id].events
		switches += p.figs[id].switches
	}
	return
}

// runPass runs the figures round-robin, at least once each, and then
// runs a figure again only while its last duration still fits before
// deadline; the pass ends when no figure fits.
// Each run's table hash and event count must equal the figure's first.
func runPass(c runCfg, runners []bench.Runner, deadline time.Time, name string) *pass {
	cfg := bench.Config{Seed: c.seed, Scale: figureScale, Parallel: 1}
	p := &pass{figs: map[string]*figureRuns{}}
	for _, r := range runners {
		p.figs[r.ID] = &figureRuns{}
	}
	root := c.spans.begin(0, name, map[string]string{"workload": c.workload})
	for i, skipped := 0, 0; skipped < len(runners); i++ {
		r := runners[i%len(runners)]
		f := p.figs[r.ID]
		if i >= len(runners) && time.Now().Add(time.Duration(f.walls[len(f.walls)-1]*1e9)).After(deadline) {
			skipped++
			continue
		}
		skipped = 0
		sp := c.spans.begin(root, "figure", map[string]string{"figure": r.ID})
		var res *bench.Result
		var err error
		ev0, sw0 := sim.GlobalExecuted(), sim.GlobalProcSwitches()
		t0, cpu0 := time.Now(), cpuSeconds()
		if c.spans != nil {
			pprof.Do(context.Background(), pprof.Labels("workload", c.workload, "figure", r.ID), func(context.Context) {
				res, err = runFigure(r, cfg)
			})
		} else {
			res, err = runFigure(r, cfg)
		}
		wall, cpu := time.Since(t0), cpuSeconds()-cpu0
		ev, sw := sim.GlobalExecuted()-ev0, sim.GlobalProcSwitches()-sw0
		c.spans.finish(sp)
		p.runs++
		p.executed += ev
		f.walls = append(f.walls, wall.Seconds())
		f.cpus = append(f.cpus, cpu)
		switch {
		case err != nil:
		case len(f.walls) == 1:
			sum := sha256.Sum256([]byte(res.String()))
			f.sum, f.events, f.switches = hex.EncodeToString(sum[:]), ev, sw
		default:
			sum := sha256.Sum256([]byte(res.String()))
			if hex.EncodeToString(sum[:]) != f.sum {
				err = fmt.Errorf("%s: table changed between runs at seed %d", r.ID, c.seed)
			} else if ev != f.events || sw != f.switches {
				err = fmt.Errorf("%s: %d events and %d switches, first run had %d and %d",
					r.ID, ev, sw, f.events, f.switches)
			}
		}
		if err != nil && f.bad == nil {
			f.bad = err
		}
	}
	p.peakPending = sim.GlobalPeakPending()
	c.spans.finish(root)
	return p
}

// runFigures measures one simulation workload.
func runFigures(c runCfg) (*outcome, error) {
	ids := figureSets[c.workload]
	runners := make([]bench.Runner, len(ids))
	for i, id := range ids {
		r, ok := bench.Find(id)
		if !ok {
			return nil, fmt.Errorf("unknown figure %s", id)
		}
		runners[i] = r
	}
	o := newOutcome()

	// Set-up is the golden pre-check.
	goldenBad := map[string]error{}
	sp := c.spans.begin(0, "golden-precheck", nil)
	for _, r := range runners {
		if err := goldenPrecheck(checkoutRoot, r); err != nil {
			goldenBad[r.ID] = err
		}
	}
	c.spans.finish(sp)
	o.values["setup_s"] = endSetup()

	budget := c.seconds
	if c.trace {
		budget /= 2 // an untraced and a traced pass over the same inputs
	}
	p := runPass(c, runners, time.Now().Add(budget), "pass")
	passes := []*pass{p}
	events, switches := p.events(ids)
	wall := p.wallS(ids)
	cpu := p.cpuS(ids)
	o.values["cpu_s"] = cpu
	o.values["events_per_cpu_s"] = float64(events) / cpu
	o.values["wall_s"] = wall
	o.values["events_per_s"] = float64(events) / wall
	o.values["sim.events"] = float64(events)
	o.values["sim.proc_switches"] = float64(switches)
	o.values["sim.peak_pending"] = float64(p.peakPending)
	// op_p50_ms is the median over figures of each figure's median run,
	// so which figures got an extra run before the deadline does not
	// move it.
	perFigure := make([]float64, len(ids))
	walls := map[string][]float64{}
	for i, id := range ids {
		perFigure[i] = median(p.figs[id].walls)
		o.values["bench."+id+".wall_s"] = perFigure[i]
		walls[id] = p.figs[id].walls
	}
	o.values["op_p50_ms"] = median(perFigure) * 1e3
	o.info["figure_runs"] = p.runs
	o.info["figure_walls_s"] = walls

	if c.trace {
		tp, err := startTrace()
		if err != nil {
			return nil, err
		}
		q := runPass(c, runners, time.Now().Add(budget), "traced-pass")
		tag := fmt.Sprintf("%s-s%d", c.workload, c.seed)
		if err := tp.finish(c.out, tag, q.executed, o.values, o.info); err != nil {
			return nil, err
		}
		o.values["trace.overhead"] = q.wallS(ids)/wall - 1
		o.info["traced_figure_runs"] = q.runs
		passes = append(passes, q)
	}

	// Outputs must repeat exactly across passes and across the runs of
	// one commit and seed. The pending-set high-water mark covers every
	// figure, so a change in it fails them all.
	store, err := openCheckStore(c, o)
	if err != nil {
		return nil, err
	}
	var peakBad error
	for _, q := range passes {
		if q.peakPending != p.peakPending {
			peakBad = fmt.Errorf("peak pending %d after the traced pass, %d after the untraced pass", q.peakPending, p.peakPending)
		}
	}
	if peakBad == nil && !store.check(c.workload+"/peak_pending", strconv.FormatUint(p.peakPending, 10)) {
		peakBad = fmt.Errorf("peak pending %d differs from an earlier run at seed %d", p.peakPending, c.seed)
	}
	for _, id := range ids {
		bad := goldenBad[id]
		for _, q := range passes {
			if bad == nil {
				bad = q.figs[id].bad
			}
			if bad == nil && q.figs[id].outputs() != p.figs[id].outputs() {
				bad = fmt.Errorf("%s: traced pass differs from untraced pass", id)
			}
		}
		if bad == nil && !store.check(id, p.figs[id].outputs()) {
			bad = fmt.Errorf("%s: table, event or switch count differs from an earlier run at seed %d", id, c.seed)
		}
		if bad == nil {
			bad = peakBad
		}
		for _, q := range passes {
			n := len(q.figs[id].walls)
			o.attempted += n
			if bad != nil {
				for i := 0; i < n; i++ {
					o.fail(bad.Error())
				}
			}
		}
	}
	if err := store.save(); err != nil {
		return nil, err
	}
	return o, nil
}
