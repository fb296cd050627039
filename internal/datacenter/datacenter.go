// Package datacenter implements the paper's §5 two-tier data-center: an
// Apache-like proxy tier in front of a static web tier, driven by
// closed-loop clients replaying single-file or Zipf traces. Worker
// threads (one per connection, the Apache worker model) pay fixed
// per-request costs plus accesses to a shared application working set
// priced through the cache — which is how receive-path cache pollution
// converts into lost transactions.
package datacenter

import (
	"time"

	"ioatsim/internal/cost"
	"ioatsim/internal/fault"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/mem"
	"ioatsim/internal/ramfs"
	"ioatsim/internal/rng"
)

// Application-level cost constants (Apache 2.0 on the paper's Xeons).
const (
	// ProxyFixedWork is the per-request CPU the proxy spends on
	// parsing, header rewriting, routing and logging (Apache 2.0 proxy
	// magnitudes).
	ProxyFixedWork = 70 * time.Microsecond
	// WebFixedWork is the per-request CPU of the static web server.
	WebFixedWork = 40 * time.Microsecond
	// AppStateBytes is a server's shared working set (code, config,
	// vhost tables, regex caches) — resident when the cache is quiet,
	// evicted by receive-path pollution.
	AppStateBytes = 1536 * cost.KB
	// AppStateLines is how many working-set lines one request touches;
	// requests touch different parts of the state, so the touches are
	// drawn at random.
	AppStateLines = 1024
)

// Tier is one server role instance on a node.
type Tier struct {
	Node     *host.Node
	FS       *ramfs.FS // content store (web tier)
	appState mem.Buffer
	rand     *rng.Rand
	// touches holds one request's working-set line indices, drawn
	// before they are priced in one batched cache walk.
	touches []uint32
}

// newTier builds a tier on the node, allocating its working set.
func newTier(n *host.Node, r *rng.Rand) *Tier {
	return &Tier{
		Node:     n,
		FS:       ramfs.New(n.Mem),
		appState: n.Mem.Space.Alloc(AppStateBytes, 0),
		rand:     r,
		touches:  make([]uint32, AppStateLines),
	}
}

// appWork prices one request's application work: the fixed cost plus
// working-set touches through the node's cache. When receive-path
// traffic has evicted the working set, these touches miss and the
// request slows down — the coupling the paper's §5 results rest on. The
// touched lines are drawn first and then priced in order in one batched
// walk; cache outcomes never feed a draw, so this is the same stream of
// draws and accesses as pricing each line as it is drawn.
func (t *Tier) appWork(fixed time.Duration) time.Duration {
	lines := t.appState.Size / t.Node.P.CacheLine
	for i := range t.touches {
		t.touches[i] = uint32(t.rand.Intn(lines))
	}
	return fixed + t.Node.Mem.RandomLinesCost(t.appState, t.touches)
}

// Metrics is one measured configuration.
type Metrics struct {
	TPS       float64
	Completed int64
	ProxyCPU  float64
	WebCPU    float64
	ClientCPU float64
}

// Options configure a data-center run.
type Options struct {
	P    *cost.Params
	Feat ioat.Features
	Seed uint64

	// Clients: ClientNodes machines running ThreadsPerClient closed-loop
	// request threads each.
	ClientNodes      int
	ThreadsPerClient int

	// Content: FileCount files of FileSize bytes; Alpha > 0 replays a
	// Zipf trace over them, otherwise every thread requests file 0.
	// SpreadMin/SpreadMax, when set, draw file sizes uniformly from
	// [SpreadMin, SpreadMax] instead of the fixed FileSize.
	FileCount int
	FileSize  int
	SpreadMin int
	SpreadMax int
	Alpha     float64

	// CacheBytes enables the proxy content cache when positive.
	CacheBytes int

	// Check runs the simulation under the runtime invariant checker and
	// panics on any violation at the end of the run.
	Check bool

	// Strict upgrades Check to fail-fast (panic at the violating event).
	Strict bool

	// Fault, when non-nil, runs the data-center under the given fault
	// plan (see internal/fault).
	Fault *fault.Plan

	// Obs attaches observability sinks to the cluster (see host.Observability).
	Obs host.Observability

	Warm, Meas time.Duration
}

// hostOpts translates Options into cluster-construction options.
func (o Options) hostOpts() []host.Option {
	var opts []host.Option
	switch {
	case o.Strict:
		opts = append(opts, host.WithStrictCheck())
	case o.Check:
		opts = append(opts, host.WithCheck())
	}
	if o.Fault != nil {
		opts = append(opts, host.WithFault(*o.Fault))
	}
	if o.Obs.Enabled() {
		opts = append(opts, host.WithObservability(o.Obs))
	}
	return opts
}

func (o *Options) defaults() {
	if o.P == nil {
		o.P = cost.Default()
	}
	if o.ClientNodes == 0 {
		o.ClientNodes = 16
	}
	if o.ThreadsPerClient == 0 {
		o.ThreadsPerClient = 4
	}
	if o.FileCount == 0 {
		o.FileCount = 1
	}
	if o.FileSize == 0 {
		o.FileSize = 4 * cost.KB
	}
	if o.Warm == 0 {
		o.Warm = 60 * time.Millisecond
	}
	if o.Meas == 0 {
		o.Meas = 240 * time.Millisecond
	}
}
