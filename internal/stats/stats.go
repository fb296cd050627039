// Package stats provides the measurement instruments the simulator
// reports through: counters, summaries, time-weighted gauges (for CPU
// utilization), histograms and labelled series, plus plain-text table
// rendering for the benchmark harness.
package stats

import (
	"fmt"
	"math"

	"ioatsim/internal/sim"
)

// Counter accumulates a monotonically increasing count.
//
//ioatlint:allow deadcode — superseded by internal/metrics; deleted together with its tests in a change of its own (ROADMAP item 3)
type Counter struct {
	n int64
}

// Add increases the counter by d (d >= 0).
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("stats: negative counter increment")
	}
	c.n += d
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Summary accumulates min/max/mean/variance of a stream of samples
// (Welford's algorithm).
//
//ioatlint:allow deadcode — superseded by internal/metrics; deleted together with its tests in a change of its own (ROADMAP item 3)
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Observe adds one sample.
func (s *Summary) Observe(v float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
}

// N returns the sample count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean (0 if empty).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest sample (0 if empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (0 if empty).
func (s *Summary) Max() float64 { return s.max }

// Stddev returns the sample standard deviation (0 if n < 2).
func (s *Summary) Stddev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// TimeWeighted tracks the time integral of a piecewise-constant value —
// the instrument behind CPU-utilization and queue-length reporting.
//
//ioatlint:allow deadcode — superseded by internal/metrics; deleted together with its tests in a change of its own (ROADMAP item 3)
type TimeWeighted struct {
	value    float64
	since    sim.Time
	integral float64
	started  bool
	start    sim.Time
}

// Set records the value v as of time now. Samples must arrive in
// non-decreasing time order: a piecewise-constant integral cannot be
// amended retroactively, so a backwards sample is a caller bug.
func (g *TimeWeighted) Set(now sim.Time, v float64) {
	if !g.started {
		g.started = true
		g.start = now
		g.since = now
		g.value = v
		return
	}
	if now < g.since {
		panic(fmt.Sprintf("stats: time-weighted gauge sampled backwards (%v after %v)",
			now, g.since))
	}
	g.integral += g.value * float64(now-g.since)
	g.since = now
	g.value = v
}

// Value returns the current value.
func (g *TimeWeighted) Value() float64 { return g.value }

// Mean returns the time-weighted mean over [start, now].
func (g *TimeWeighted) Mean(now sim.Time) float64 {
	if !g.started || now <= g.start {
		return 0
	}
	total := g.integral + g.value*float64(now-g.since)
	return total / float64(now-g.start)
}

// Reset restarts the integration window at now, keeping the current value.
func (g *TimeWeighted) Reset(now sim.Time) {
	g.start = now
	g.since = now
	g.integral = 0
	g.started = true
}

// Histogram counts samples into power-of-two buckets from 1 up.
//
//ioatlint:allow deadcode — superseded by internal/metrics; deleted together with its tests in a change of its own (ROADMAP item 3)
type Histogram struct {
	buckets [64]int64
	n       int64
	sum     float64
}

// Observe adds one non-negative sample.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		panic("stats: negative histogram sample")
	}
	h.n++
	h.sum += v
	b := 0
	for x := v; x >= 1 && b < 63; x /= 2 {
		b++
	}
	h.buckets[b]++
}

// N returns the sample count.
func (h *Histogram) N() int64 { return h.n }

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) using
// bucket upper edges.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.n)))
	var seen int64
	for b, c := range h.buckets {
		seen += c
		if seen >= target {
			if b == 0 {
				return 1
			}
			return math.Pow(2, float64(b))
		}
	}
	return math.Pow(2, 63)
}

// Point is one labelled (x, y...) row of a Series.
type Point struct {
	X      float64
	Label  string
	Values map[string]float64
}

// Series collects experiment rows in insertion order; the benchmark
// harness renders one Series per paper figure.
type Series struct {
	Name    string
	XLabel  string
	Columns []string
	Points  []Point
}

// NewSeries returns an empty series with the given column set.
func NewSeries(name, xlabel string, columns ...string) *Series {
	return &Series{Name: name, XLabel: xlabel, Columns: columns}
}

// Add appends a row. Values are matched positionally to Columns.
func (s *Series) Add(x float64, label string, values ...float64) {
	if len(values) != len(s.Columns) {
		panic(fmt.Sprintf("stats: row has %d values, series %q has %d columns",
			len(values), s.Name, len(s.Columns)))
	}
	m := make(map[string]float64, len(values))
	for i, c := range s.Columns {
		m[c] = values[i]
	}
	s.Points = append(s.Points, Point{X: x, Label: label, Values: m})
}

// Get returns the value of column col at the row whose label is label.
func (s *Series) Get(label, col string) (float64, bool) {
	for _, p := range s.Points {
		if p.Label == label {
			v, ok := p.Values[col]
			return v, ok
		}
	}
	return 0, false
}

// Column returns all values of one column in row order.
func (s *Series) Column(col string) []float64 {
	out := make([]float64, 0, len(s.Points))
	for _, p := range s.Points {
		out = append(out, p.Values[col])
	}
	return out
}

// RelativeBenefit computes the paper's "relative CPU benefit" (b-a)/b for
// two columns of the same row: base b, accelerated a. Returns 0 when the
// base is 0.
func RelativeBenefit(base, accel float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - accel) / base
}
