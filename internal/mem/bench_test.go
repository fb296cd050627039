package mem

import (
	"testing"

	"ioatsim/internal/cost"
)

// benchCache builds the default Testbed-1 geometry: 2 MB, 64 B lines,
// 8-way (4096 sets).
func benchCache() *Cache { return NewCache(2<<20, 64, 8) }

// BenchmarkAccessRange covers the bulk-copy pricing path in its three
// characteristic regimes: hit-heavy (working set resident), miss-heavy
// (streaming through a buffer far larger than the cache), and
// wrap-around (a range whose line count exceeds the set count, so the
// set cursor wraps within one call).
func BenchmarkAccessRange(b *testing.B) {
	const chunk = 64 << 10 // one socket-buffer chunk
	b.Run("hit", func(b *testing.B) {
		c := benchCache()
		c.AccessRange(0, chunk) // warm: every later pass hits
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessRange(0, chunk)
		}
		b.SetBytes(chunk)
	})
	b.Run("miss", func(b *testing.B) {
		c := benchCache()
		span := Addr(8 << 20) // 4x the cache: each pass evicts the last
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessRange(Addr(i)%span*chunk, chunk)
		}
		b.SetBytes(chunk)
	})
	b.Run("wrap", func(b *testing.B) {
		c := benchCache()
		big := c.Size() + c.Size()/2 // 1.5x capacity: wraps the set cursor
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessRange(0, big)
		}
		b.SetBytes(int64(big))
	})
}

// BenchmarkAccessLines covers the dependent single-line pattern of
// protocol-header and connection-state reads, and the per-line cost the
// datacenter figures' working-set reads paid before they were batched
// (BenchmarkRandomLinesCost), at a ~75% hit rate.
func BenchmarkAccessLines(b *testing.B) {
	c := benchCache()
	ws := 1536 << 10 // the datacenter tier working set
	lines := ws / c.LineSize()
	c.AccessRange(0, ws)
	rnd := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		line := int(rnd>>33) % lines
		c.AccessLines(Addr(line*c.LineSize()), 1)
	}
}

// BenchmarkAccessLinesNodes is BenchmarkAccessLines spread over the 20
// node caches of a datacenter figure, each warmed with its tier's 1.5 MB
// working set. Every access picks a node and a line at random, so the
// cache state of all nodes together outgrows the host's caches and hits
// land evenly over the ways: the regime a move-to-front set encoding
// pays for on every hit.
func BenchmarkAccessLinesNodes(b *testing.B) {
	const nodes = 20
	ws := 1536 << 10
	caches := make([]*Cache, nodes)
	for i := range caches {
		caches[i] = benchCache()
		caches[i].AccessRange(0, ws)
	}
	lines := ws / caches[0].LineSize()
	rnd := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		r := int(rnd >> 33)
		c := caches[r%nodes]
		c.AccessLines(Addr(r/nodes%lines*c.LineSize()), 1)
	}
}

// BenchmarkInvalidate covers the DMA-write coherence path: per-frame
// payload invalidation (resident and absent lines) and a wrap-around
// range.
func BenchmarkInvalidate(b *testing.B) {
	const frame = 1500
	b.Run("resident", func(b *testing.B) {
		c := benchCache()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessRange(0, frame) // re-install, then drop
			c.Invalidate(0, frame)
		}
		b.SetBytes(frame)
	})
	b.Run("absent", func(b *testing.B) {
		c := benchCache()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Invalidate(Addr(i%1024)*frame, frame)
		}
		b.SetBytes(frame)
	})
	b.Run("wrap", func(b *testing.B) {
		c := benchCache()
		big := c.Size() + c.Size()/2
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Invalidate(0, big)
		}
		b.SetBytes(int64(big))
	})
}

// BenchmarkRandomLinesCost prices one data-center request's app work —
// 1024 random lines of a 1.5 MB working set on a warmed 2 MB cache —
// as one batched RandomLinesCost call and as the one-line RandomCost
// loop it replaces. Each op is one request.
func BenchmarkRandomLinesCost(b *testing.B) {
	const ws, touches = 1536 << 10, 1024
	setup := func() (*Model, Buffer, [][]uint32) {
		m := NewModel(cost.Default())
		buf := m.Space.Alloc(ws, 0)
		m.TouchCost(buf.Addr, ws)
		lines := ws / m.P.CacheLine
		rnd := uint64(1)
		reqs := make([][]uint32, 64)
		for r := range reqs {
			reqs[r] = make([]uint32, touches)
			for k := range reqs[r] {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				reqs[r][k] = uint32(int(rnd>>33) % lines)
			}
		}
		return m, buf, reqs
	}
	b.Run("batched", func(b *testing.B) {
		m, buf, reqs := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.RandomLinesCost(buf, reqs[i%len(reqs)])
		}
	})
	b.Run("single", func(b *testing.B) {
		m, buf, reqs := setup()
		line := m.P.CacheLine
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range reqs[i%len(reqs)] {
				m.RandomCost(buf.Addr+Addr(int(k)*line), 1)
			}
		}
	})
}
