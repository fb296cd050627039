package mem

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ioatsim/internal/check"
	"ioatsim/internal/cost"
	"ioatsim/internal/trace"
)

func TestSpaceAllocDisjoint(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(100, 0)
	b := s.Alloc(200, 0)
	if a.Addr == 0 || b.Addr == 0 {
		t.Fatal("allocated at address 0")
	}
	if a.End() > b.Addr {
		t.Fatalf("overlapping allocations: %v %v", a, b)
	}
}

func TestSpaceAlignment(t *testing.T) {
	s := NewSpace()
	s.Alloc(3, 0)
	b := s.Alloc(10, 256)
	if b.Addr%256 != 0 {
		t.Fatalf("addr %d not 256-aligned", b.Addr)
	}
}

func TestBufferSlice(t *testing.T) {
	s := NewSpace()
	b := s.Alloc(100, 0)
	sub := b.Slice(10, 20)
	if sub.Addr != b.Addr+10 || sub.Size != 20 {
		t.Fatalf("slice = %v", sub)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slice did not panic")
		}
	}()
	b.Slice(90, 20)
}

func TestPoolLIFOReuse(t *testing.T) {
	s := NewSpace()
	p := NewPool(s, 2048)
	a := p.Get()
	p.Put(a)
	b := p.Get()
	if b.Addr != a.Addr {
		t.Fatal("pool did not reuse the most recently freed buffer")
	}
	if p.Total != 1 {
		t.Fatalf("pool created %d buffers, want 1", p.Total)
	}
}

func TestPoolGrowsUnderBacklog(t *testing.T) {
	s := NewSpace()
	p := NewPool(s, 2048)
	var held []Buffer
	for i := 0; i < 100; i++ {
		held = append(held, p.Get())
	}
	if p.MaxLive != 100 || p.Total != 100 {
		t.Fatalf("MaxLive=%d Total=%d, want 100/100", p.MaxLive, p.Total)
	}
	for _, b := range held {
		p.Put(b)
	}
	if p.Live != 0 {
		t.Fatalf("Live = %d after returning all", p.Live)
	}
}

func TestCacheHitAfterAccess(t *testing.T) {
	c := NewCache(64*1024, 64, 8)
	if c.Access(1000) {
		t.Fatal("cold access reported hit")
	}
	if !c.Access(1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(1023) { // same line (line 15 covers 960..1023)
		t.Fatal("same-line access missed")
	}
	if c.Access(1024) { // next line
		t.Fatal("next-line access hit while cold")
	}
}

func TestCacheCapacityEviction(t *testing.T) {
	c := NewCache(64*1024, 64, 8)
	// Fill 2x capacity with a streaming pass, then re-touch the start:
	// it must have been evicted.
	c.AccessRange(0, 128*1024)
	if c.Contains(0) {
		t.Fatal("start of 2x-capacity stream still resident")
	}
	// A working set half the capacity stays resident.
	c.Flush()
	c.AccessRange(0, 32*1024)
	if got := c.Resident(0, 32*1024); got != 32*1024/64 {
		t.Fatalf("resident = %d lines, want all %d", got, 32*1024/64)
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	// 2-way cache with 2 sets: lines mapping to set 0 are addresses
	// 0, 256, 512, ... (line 64, sets 2).
	c := NewCache(256, 64, 2)
	c.Access(0)   // set0 way A
	c.Access(256) // set0 way B
	c.Access(0)   // refresh A
	c.Access(512) // evicts B (LRU)
	if !c.Contains(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Contains(256) {
		t.Fatal("LRU line survived")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(64*1024, 64, 8)
	c.AccessRange(4096, 1024)
	c.Invalidate(4096, 1024)
	if got := c.Resident(4096, 1024); got != 0 {
		t.Fatalf("resident after invalidate = %d", got)
	}
}

func TestCacheInstall(t *testing.T) {
	c := NewCache(64*1024, 64, 8)
	c.Install(8192, 128)
	h, m := c.AccessRange(8192, 128)
	if m != 0 || h != 2 {
		t.Fatalf("after install: hits=%d misses=%d, want 2/0", h, m)
	}
}

func TestCacheStatsCount(t *testing.T) {
	c := NewCache(64*1024, 64, 8)
	c.AccessRange(0, 6400) // 100 lines cold
	if c.Misses != 100 || c.Hits != 0 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	c.AccessRange(0, 6400)
	if c.Hits != 100 {
		t.Fatalf("hits=%d, want 100", c.Hits)
	}
}

// Property: Resident never exceeds the number of lines in the range, and
// after accessing a range every line of a range no larger than one way's
// worth per set is resident.
func TestCacheResidencyProperty(t *testing.T) {
	f := func(start uint32, n uint16) bool {
		c := NewCache(64*1024, 64, 8)
		nn := int(n)%8192 + 1
		addr := Addr(start)
		c.AccessRange(addr, nn)
		lines := int((uint64(addr)+uint64(nn)-1)/64 - uint64(addr)/64 + 1)
		r := c.Resident(addr, nn)
		if r > lines {
			return false
		}
		// 8K range in a 64K cache always fits entirely.
		return r == lines
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestModelCopyCacheVsNocache(t *testing.T) {
	p := cost.Default()
	m := NewModel(p)
	src := m.Space.Alloc(64*cost.KB, 0)
	dst := m.Space.Alloc(64*cost.KB, 0)

	cold := m.CopyCost(src.Addr, dst.Addr, 64*cost.KB)
	warm := m.CopyCost(src.Addr, dst.Addr, 64*cost.KB)
	if warm >= cold {
		t.Fatalf("warm copy (%v) not faster than cold (%v)", warm, cold)
	}
	// Calibration: cold ~ 43 us (1.5 GB/s), warm ~ 8 us (8 GB/s).
	if cold < 35000 || cold > 55000 {
		t.Fatalf("cold 64K copy = %v ns, want ~43000", cold.Nanoseconds())
	}
	if warm < 6000 || warm > 12000 {
		t.Fatalf("warm 64K copy = %v ns, want ~8200", warm.Nanoseconds())
	}
}

func TestModelCopyPollutesCache(t *testing.T) {
	p := cost.Default()
	m := NewModel(p)
	hot := m.Space.Alloc(256*cost.KB, 0)
	m.TouchCost(hot.Addr, hot.Size) // make it resident
	if m.Cache.Resident(hot.Addr, hot.Size) == 0 {
		t.Fatal("warm-up failed")
	}
	// A 4 MB copy (2x cache) evicts the hot set.
	src := m.Space.Alloc(4*cost.MB, 0)
	dst := m.Space.Alloc(4*cost.MB, 0)
	m.CopyCost(src.Addr, dst.Addr, 4*cost.MB)
	if got := m.Cache.Resident(hot.Addr, hot.Size); got > hot.Size/p.CacheLine/10 {
		t.Fatalf("hot set survived a 2x-cache copy: %d lines resident", got)
	}
}

func TestModelDMAWriteAvoidsPollution(t *testing.T) {
	p := cost.Default()
	m := NewModel(p)
	hot := m.Space.Alloc(256*cost.KB, 0)
	m.TouchCost(hot.Addr, hot.Size)
	before := m.Cache.Resident(hot.Addr, hot.Size)
	dst := m.Space.Alloc(4*cost.MB, 0)
	m.DMAWrite(dst.Addr, dst.Size) // engine copy does not pass through cache
	after := m.Cache.Resident(hot.Addr, hot.Size)
	if after != before {
		t.Fatalf("DMA write disturbed unrelated hot lines: %d -> %d", before, after)
	}
}

func TestModelRandomCost(t *testing.T) {
	p := cost.Default()
	m := NewModel(p)
	b := m.Space.Alloc(1024, 0)
	cold := m.RandomCost(b.Addr, 2)
	warm := m.RandomCost(b.Addr, 2)
	if cold != 2*p.RandMiss {
		t.Fatalf("cold random = %v, want %v", cold, 2*p.RandMiss)
	}
	if warm != 2*p.RandHit {
		t.Fatalf("warm random = %v, want %v", warm, 2*p.RandHit)
	}
}

// TestModelRandomLinesCostMatchesRandomCost prices the same random
// working-set touches on twin checked, profiled models: one batched
// RandomLinesCost call per request against one RandomCost(line, 1) per
// index. Durations, cache counters, profiler sites and the residency of
// every buffer line must agree after every request.
func TestModelRandomLinesCostMatchesRandomCost(t *testing.T) {
	p := cost.Default()
	twin := func() (*Model, *trace.Profiler, *check.Checker) {
		m := NewModel(p)
		chk := check.New()
		m.SetChecker(chk)
		prof := trace.NewProfiler()
		m.SetObs(&trace.Obs{P: prof})
		return m, prof, chk
	}
	batched, bprof, bchk := twin()
	single, sprof, schk := twin()
	const ws = 1536 * cost.KB // a data-center tier's working set
	buf := batched.Space.Alloc(ws, 0)
	single.Space.Alloc(ws, 0)
	other := batched.Space.Alloc(ws, 0) // traffic that evicts the working set
	single.Space.Alloc(ws, 0)
	lines := ws / p.CacheLine

	rnd := uint64(7)
	idx := make([]uint32, 1024)
	for req := 0; req < 12; req++ {
		for k := range idx {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			idx[k] = uint32(int(rnd>>33) % lines)
		}
		got := batched.RandomLinesCost(buf, idx)
		var want time.Duration
		for _, i := range idx {
			want += single.RandomCost(buf.Addr+Addr(int(i)*p.CacheLine), 1)
		}
		if got != want {
			t.Fatalf("request %d: batched %v, one line at a time %v", req, got, want)
		}
		if req%3 == 2 {
			batched.TouchCost(other.Addr, ws/2)
			single.TouchCost(other.Addr, ws/2)
		}
	}
	if batched.Cache.Hits != single.Cache.Hits || batched.Cache.Misses != single.Cache.Misses {
		t.Fatalf("cache counters: batched %d/%d hits/misses, single %d/%d",
			batched.Cache.Hits, batched.Cache.Misses, single.Cache.Hits, single.Cache.Misses)
	}
	if batched.Cache.Hits == 0 || batched.Cache.Misses == 0 {
		t.Fatalf("degenerate stream: %d hits, %d misses", batched.Cache.Hits, batched.Cache.Misses)
	}
	for _, site := range []trace.Site{trace.SiteHeaderHit, trace.SiteHeaderMiss} {
		if b, s := bprof.Self(site), sprof.Self(site); b != s {
			t.Fatalf("profiler site %v: batched %v, single %v", site, b, s)
		}
	}
	for l := 0; l < lines; l++ {
		a := buf.Addr + Addr(l*p.CacheLine)
		if batched.Cache.Contains(a) != single.Cache.Contains(a) {
			t.Fatalf("line %d: resident in one twin only", l)
		}
	}
	for _, c := range []*check.Checker{bchk, schk} {
		c.Finish()
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestModelRandomLinesCostAudits pins the checked-mode audit cadence for
// batched pricing: every auditEvery priced lines, however they are
// batched, run one structural audit. A corrupted set the walk never
// touches stays unreported for auditEvery-1 lines and is caught at the
// next.
func TestModelRandomLinesCostAudits(t *testing.T) {
	p := cost.Default()
	m := NewModel(p)
	chk := check.New()
	m.SetChecker(chk)
	buf := m.Space.Alloc(64*p.CacheLine, 0)
	m.Cache.state[m.Cache.ways] = 1 // set 0: invalid way 0 with a stamp
	idx := make([]uint32, 1000)
	for k := range idx {
		idx[k] = uint32(k % 64)
	}
	for priced := 0; priced+len(idx) < auditEvery; priced += len(idx) {
		m.RandomLinesCost(buf, idx)
	}
	m.RandomLinesCost(buf, idx[:auditEvery%len(idx)-1])
	if v := chk.Violations(); len(v) != 0 {
		t.Fatalf("audited before %d priced lines: %v", auditEvery, v)
	}
	m.RandomLinesCost(buf, idx[:1])
	if v := chk.Violations(); len(v) != 1 || !strings.Contains(v[0], "is invalid but has LRU stamp") {
		t.Fatalf("after %d priced lines: violations %v, want the corrupted set", auditEvery, v)
	}
}

func TestModelZeroSizes(t *testing.T) {
	m := NewModel(cost.Default())
	if m.CopyCost(0, 0, 0) != 0 || m.TouchCost(0, 0) != 0 || m.RandomCost(0, 0) != 0 ||
		m.RandomLinesCost(Buffer{}, nil) != 0 {
		t.Fatal("zero-size operations must cost nothing")
	}
}

// TestCacheTickWrap starts the 32-bit LRU tick a few hundred below the
// wrap on a warmed cache and runs a mixed op stream across it, on the
// 8-way fast path and the generic loop. Every outcome must match the
// naive-LRU oracle op for op: renormalising the stamps may not change a
// single hit, miss or eviction.
func TestCacheTickWrap(t *testing.T) {
	for _, ways := range []int{8, 3} {
		lineSize, nsets := 64, 16
		c := NewCache(lineSize*ways*nsets, lineSize, ways)
		o := newLRUOracle(lineSize, ways, nsets)
		rnd := uint64(ways)
		next := func() uint64 {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			return rnd >> 33
		}
		span := uint64(4 * c.Size())
		step := 0
		run := func(ops int) {
			for i := 0; i < ops; i++ {
				op := cacheOp{kind: byte(next()), addr: Addr(next() % span), n: int(next() % (span / 8))}
				applyOp(t, c, o, step, op)
				step++
			}
		}
		run(200)
		c.tick = math.MaxUint32 - 300
		run(400)
		if c.tick > math.MaxUint32-300 {
			t.Fatalf("%d-way: stream never wrapped the tick (tick %d)", ways, c.tick)
		}
		// One call that needs more ticks than remain renormalises first.
		c.tick = math.MaxUint32 - 5
		applyOp(t, c, o, step, cacheOp{kind: 0, addr: 0, n: 100 * lineSize})
		// So does one batch of indexed lines, with repeats and lines
		// that share a set.
		c.tick = math.MaxUint32 - 5
		idx := []uint32{0, 3, 3, 16, 32, 48, 5, 0, 21, 37, 53, 69, 85, 7}
		applyIndexed(t, c, o, step+1, Buffer{Addr: 64, Size: 100 * lineSize}, idx)
		if c.tick > uint32(ways)+uint32(len(idx)) {
			t.Fatalf("%d-way: indexed batch did not renormalise the tick (tick %d)", ways, c.tick)
		}
		checkOracleEnd(t, c, o)
	}
}

// TestCacheTagRangePanics pins the 32-bit tag limit on a one-set
// geometry, where the tag is the whole line number plus one: the last
// line whose tag fits is usable, and every operation that reaches past
// it panics with errTagRange instead of aliasing a low line.
func TestCacheTagRangePanics(t *testing.T) {
	c := NewCache(16, 16, 1)
	top := Addr(math.MaxUint32-1) << 4 // the last line with a 32-bit tag
	c.Access(top)
	if !c.Contains(top) || c.Contains(0) {
		t.Fatal("the last taggable line is not resident on its own")
	}
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Access", func() { c.Access(top + 16) }},
		{"AccessRange", func() { c.AccessRange(top, 32) }},
		{"AccessLines", func() { c.AccessLines(top, 2) }},
		{"Install", func() { c.Install(top+16, 1) }},
		{"Invalidate", func() { c.Invalidate(top, 17) }},
		{"Contains", func() { c.Contains(top + 16) }},
		{"AccessIndexed", func() { c.AccessIndexed(Buffer{Addr: top, Size: 17}, []uint32{0}) }},
	} {
		func() {
			defer func() {
				if r := recover(); r != errTagRange {
					t.Errorf("%s past the tag range: recovered %v, want %v", tc.name, r, errTagRange)
				}
			}()
			tc.op()
		}()
	}
}

// TestCacheIndexOutOfRangePanics pins AccessIndexed's bounds check: an
// index naming a line past the buffer panics with errLineIndex, after
// the lines before it are counted and with the cache still consistent;
// an empty buffer admits no index at all.
func TestCacheIndexOutOfRangePanics(t *testing.T) {
	c := NewCache(64*1024, 64, 8)
	buf := Buffer{Addr: 4096 + 8, Size: 4 * 64} // unaligned: spans 5 lines, indexes 4
	for _, tc := range []struct {
		name string
		buf  Buffer
		idx  []uint32
		ok   int
	}{
		{"past the end", buf, []uint32{0, 3, 1, 4, 2}, 3},
		{"huge index", buf, []uint32{1, math.MaxUint32}, 1},
		{"empty buffer", Buffer{Addr: 4096}, []uint32{0}, 0},
	} {
		before := c.Hits + c.Misses
		func() {
			defer func() {
				if r := recover(); r != errLineIndex {
					t.Errorf("%s: recovered %v, want %v", tc.name, r, errLineIndex)
				}
			}()
			c.AccessIndexed(tc.buf, tc.idx)
		}()
		if got := c.Hits + c.Misses - before; got != uint64(tc.ok) {
			t.Errorf("%s: counted %d lines before the panic, want %d", tc.name, got, tc.ok)
		}
		if err := c.Audit(); err != nil {
			t.Errorf("%s: cache inconsistent after the panic: %v", tc.name, err)
		}
	}
}

// TestCacheAuditCatchesCorruption corrupts one set block of a full
// cache in each way Audit guards against and requires each to be
// reported.
func TestCacheAuditCatchesCorruption(t *testing.T) {
	full := func() *Cache {
		c := NewCache(64*8*4, 64, 8)
		c.AccessRange(0, 2*c.Size())
		if err := c.Audit(); err != nil {
			t.Fatalf("clean cache fails its audit: %v", err)
		}
		return c
	}
	const base = 16 // set 1's block
	for _, tc := range []struct {
		name    string
		corrupt func(c *Cache)
		want    string
	}{
		{"stamp after tick", func(c *Cache) { c.state[base+8+3] = c.tick + 1 }, "later than the tick"},
		{"invalid with stamp", func(c *Cache) { c.state[base+5] = 0 }, "is invalid but has LRU stamp"},
		{"way 0 not newest", func(c *Cache) {
			c.state[base+8], c.state[base+8+2] = c.state[base+8+2], c.state[base+8]
		}, "is not older than way 0"},
		{"duplicate tag", func(c *Cache) { c.state[base+2] = c.state[base+3] }, "duplicate tag"},
	} {
		c := full()
		tc.corrupt(c)
		err := c.Audit()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Audit() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
