package mem

import (
	"time"

	"ioatsim/internal/check"
	"ioatsim/internal/cost"
	"ioatsim/internal/trace"
)

// auditEvery is how many priced operations pass between two structural
// cache audits in checked mode: a full walk per operation would swamp
// the run, one every few thousand still catches corruption long before
// the end-of-run audit.
const auditEvery = 4096

// missBurstLines is the miss count at which one priced operation is
// worth a trace marker: a burst this size means a whole frame (or more)
// came from DRAM in one go — the cold-buffer signature the paper's
// cache-miss story is about.
const missBurstLines = 32

// Model prices memory operations against one node's cache.
type Model struct {
	P     *cost.Params
	Cache *Cache
	Space *Space

	chk *check.Checker
	obs *trace.Obs
	ops uint64
}

// NewModel returns a memory model with a fresh cache and address space.
func NewModel(p *cost.Params) *Model {
	return &Model{
		P:     p,
		Cache: NewCache(p.CacheSize, p.CacheLine, p.CacheWays),
		Space: NewSpace(),
	}
}

// SetChecker puts the model in checked mode: priced operations audit
// the cache structure every auditEvery calls, and one full audit is
// registered to run when the checker finishes.
func (m *Model) SetChecker(c *check.Checker) {
	if c == nil {
		return
	}
	m.chk = c
	c.OnFinish(func(c *check.Checker) {
		if err := m.Cache.Audit(); err != nil {
			c.Failf("mem", "final cache audit: %v", err)
		}
		c.InRange("mem", "cache occupancy", float64(m.Cache.OccupiedLines()),
			0, float64(m.Cache.Lines()))
	})
}

// SetObs attaches the node's observability sinks: the profiler's
// memory-pricing detail (hit vs miss split of copy and header work) and
// the tracer's cache-miss-burst markers.
func (m *Model) SetObs(o *trace.Obs) { m.obs = o }

// streamObs attributes one priced streaming operation and marks miss
// bursts. No-op when obs is not installed.
func (m *Model) streamObs(hits, misses int) {
	o := m.obs
	if o == nil {
		return
	}
	o.Cost(trace.SiteCopyHit, time.Duration(hits)*m.P.StreamHit)
	o.Cost(trace.SiteCopyMiss, time.Duration(misses)*m.P.StreamMiss)
	if misses >= missBurstLines {
		o.Instant(trace.TidMem, trace.SiteMissBurst, int64(misses))
	}
}

// observe is the per-operation probe: hit/miss counters must be
// monotone and consistent, and the structure is audited periodically.
// A batched operation counts as n, one per line it priced, so batching
// never makes audits rarer.
func (m *Model) observe(n int) {
	before := m.ops
	m.ops += uint64(n)
	if m.ops/auditEvery != before/auditEvery {
		if err := m.Cache.Audit(); err != nil {
			m.chk.Failf("mem", "cache audit after %d ops: %v", m.ops, err)
		}
	}
}

// CopyCost prices a CPU memcpy of n bytes from src to dst, updating the
// cache (both source reads and write-allocated destination lines pass
// through it — this is the pollution the DMA engine avoids). Streaming
// access costs apply: the hardware prefetcher hides most of the latency.
//
//ioat:hotpath
func (m *Model) CopyCost(src, dst Addr, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	sh, sm := m.Cache.AccessRange(src, n)
	dh, dm := m.Cache.AccessRange(dst, n)
	if m.chk != nil {
		m.chk.Assert(sh+sm == m.lineSpan(src, n) && dh+dm == m.lineSpan(dst, n),
			"mem", "copy of %d bytes touched %d+%d source and %d+%d destination lines",
			n, sh, sm, dh, dm)
		m.observe(1)
	}
	if m.obs != nil {
		m.streamObs(sh+dh, sm+dm)
	}
	hits := time.Duration(sh + dh)
	misses := time.Duration(sm + dm)
	return hits*m.P.StreamHit + misses*m.P.StreamMiss
}

// lineSpan returns how many cache lines [addr, addr+n) covers (n > 0).
func (m *Model) lineSpan(addr Addr, n int) int {
	line := uint64(m.P.CacheLine)
	first := uint64(addr) / line
	last := (uint64(addr) + uint64(n) - 1) / line
	return int(last - first + 1)
}

// TouchCost prices a streaming read or write pass over [addr, addr+n),
// e.g. an application scanning a received buffer.
//
//ioat:hotpath
func (m *Model) TouchCost(addr Addr, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	h, miss := m.Cache.AccessRange(addr, n)
	if m.chk != nil {
		m.chk.Assert(h+miss == m.lineSpan(addr, n),
			"mem", "touch of %d bytes counted %d hits + %d misses", n, h, miss)
		m.observe(1)
	}
	if m.obs != nil {
		m.streamObs(h, miss)
	}
	return time.Duration(h)*m.P.StreamHit + time.Duration(miss)*m.P.StreamMiss
}

// RandomCost prices dependent accesses to nLines lines starting at addr —
// the pattern of protocol-header and connection-state reads, where each
// miss pays the full DRAM latency. The lines are consecutive, so the
// cache walks them in one batched pass instead of one Access call each.
//
//ioat:hotpath
func (m *Model) RandomCost(addr Addr, nLines int) time.Duration {
	h, miss := m.Cache.AccessLines(addr, nLines)
	if m.chk != nil {
		m.chk.Assert(h+miss == max(nLines, 0),
			"mem", "random access of %d lines counted %d hits + %d misses", nLines, h, miss)
		m.observe(1)
	}
	if m.obs != nil {
		m.obs.Cost(trace.SiteHeaderHit, time.Duration(h)*m.P.RandHit)
		m.obs.Cost(trace.SiteHeaderMiss, time.Duration(miss)*m.P.RandMiss)
	}
	return time.Duration(h)*m.P.RandHit + time.Duration(miss)*m.P.RandMiss
}

// RandomLinesCost prices dependent accesses to the lines of buf named by
// idx, in order (index i is the line at buf.Addr + i*CacheLine) — the
// pattern of an application touching scattered lines of its working
// set. It returns exactly what one RandomCost(line, 1) call per index
// would, summed, and leaves the cache and the profiler in the same
// state, but prices the whole list in one cache walk.
//
//ioat:hotpath
func (m *Model) RandomLinesCost(buf Buffer, idx []uint32) time.Duration {
	h, miss := m.Cache.AccessIndexed(buf, idx)
	if m.chk != nil {
		m.chk.Assert(h+miss == len(idx),
			"mem", "batched random access counted %d hits + %d misses", h, miss)
		m.observe(h + miss)
	}
	if m.obs != nil {
		m.obs.Cost(trace.SiteHeaderHit, time.Duration(h)*m.P.RandHit)
		m.obs.Cost(trace.SiteHeaderMiss, time.Duration(miss)*m.P.RandMiss)
	}
	return time.Duration(h)*m.P.RandHit + time.Duration(miss)*m.P.RandMiss
}

// DMAWrite models a device (NIC or copy engine) writing [addr, addr+n):
// the data lands in memory and any stale cached lines are invalidated,
// so the CPU's next access misses.
//
//ioat:hotpath
func (m *Model) DMAWrite(addr Addr, n int) {
	m.Cache.Invalidate(addr, n)
}

// InstallHeader models direct cache placement of a split header: the
// header bytes are pushed into the cache so the protocol code hits.
//
//ioat:hotpath
func (m *Model) InstallHeader(addr Addr, n int) {
	m.Cache.Install(addr, n)
}

// InstallPacket models full-packet direct cache placement (the I/OAT
// platform without split headers): the whole frame lands in the cache and
// the cost of the valid lines it displaces is charged to the receive
// path.
//
//ioat:hotpath
func (m *Model) InstallPacket(addr Addr, n int) time.Duration {
	evicted := m.Cache.Install(addr, n)
	if m.chk != nil {
		m.chk.Assert(evicted <= m.lineSpan(addr, n),
			"mem", "installing %d bytes evicted %d lines, more than it spans", n, evicted)
		m.observe(1)
	}
	if m.obs != nil {
		m.obs.Cost(trace.SiteEvict, time.Duration(evicted)*m.P.EvictPenalty)
	}
	return time.Duration(evicted) * m.P.EvictPenalty
}
