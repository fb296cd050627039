package mem

import "testing"

// FuzzCacheAccessRange hammers a fuzz-chosen cache geometry with an
// arbitrary stream of range accesses, direct installs, invalidations and
// flushes, then audits the whole structure: occupancy never exceeds
// capacity, every tag indexes its own set, no set holds duplicates, and
// hit/miss accounting matches the lines touched.
func FuzzCacheAccessRange(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(4), []byte{0, 1, 2, 3, 255, 17, 64, 128})
	f.Add(uint8(0), uint8(0), uint8(0), []byte{9, 9, 9})
	f.Add(uint8(5), uint8(1), uint8(7), []byte{})

	f.Fuzz(func(t *testing.T, lineSel, waySel, setSel uint8, ops []byte) {
		lineSize := 16 << (int(lineSel) % 5) // 16..256, power of two
		ways := 1 + int(waySel)%8            // 1..8
		nsets := 1 << (int(setSel) % 7)      // 1..64, power of two
		size := lineSize * ways * nsets
		c := NewCache(size, lineSize, ways)

		span := 4 * size // address range spanning several aliasing rounds
		var accHits, accMisses int
		for i := 0; i+2 < len(ops); i += 3 {
			addr := Addr(int(ops[i]) * span / 256)
			n := int(ops[i+1]) * span / 256
			switch ops[i+2] % 5 {
			case 0:
				hits, misses := c.AccessRange(addr, n)
				lines := spanLines(c, addr, n)
				if hits+misses != lines {
					t.Fatalf("AccessRange(%d, %d): %d hits + %d misses != %d lines touched",
						addr, n, hits, misses, lines)
				}
				accHits += hits
				accMisses += misses
			case 1:
				c.Access(addr)
			case 2:
				if ev := c.Install(addr, n); ev > spanLines(c, addr, n) {
					t.Fatalf("Install(%d, %d) evicted %d lines for %d installed",
						addr, n, ev, spanLines(c, addr, n))
				}
			case 3:
				c.Invalidate(addr, n)
			case 4:
				c.Flush()
				if occ := c.OccupiedLines(); occ != 0 {
					t.Fatalf("flushed cache still holds %d lines", occ)
				}
			}
			if occ := c.OccupiedLines(); occ > c.Lines() {
				t.Fatalf("occupancy %d lines exceeds capacity %d", occ, c.Lines())
			}
		}
		if err := c.Audit(); err != nil {
			t.Fatalf("structural audit failed: %v", err)
		}
		// Range accesses alone can never over-count: every resident line
		// was brought in by some miss.
		if int(c.Hits) < accHits || int(c.Misses) < accMisses {
			t.Fatalf("global counters (%d/%d) below range-access counters (%d/%d)",
				c.Hits, c.Misses, accHits, accMisses)
		}
	})
}

// spanLines returns how many cache lines [addr, addr+n) covers.
func spanLines(c *Cache, addr Addr, n int) int {
	if n <= 0 {
		return 0
	}
	first := uint64(addr) >> c.shift
	last := (uint64(addr) + uint64(n) - 1) >> c.shift
	return int(last - first + 1)
}

// lruOracle is the naive reference model for Cache: one MRU-ordered list
// of line numbers per set, most recent first. It knows nothing of tags,
// stamps or way slots; it only encodes the LRU rule itself, so any
// re-encoding of Cache must agree with it hit for hit and eviction for
// eviction.
type lruOracle struct {
	shift        uint
	ways         int
	sets         [][]uint64
	hits, misses uint64
}

func newLRUOracle(lineSize, ways, nsets int) *lruOracle {
	shift := uint(0)
	for 1<<shift != lineSize {
		shift++
	}
	return &lruOracle{shift: shift, ways: ways, sets: make([][]uint64, nsets)}
}

func (o *lruOracle) set(line uint64) *[]uint64 { return &o.sets[line%uint64(len(o.sets))] }

// ref references line: a hit moves it to the front, a miss inserts it at
// the front and drops the LRU line when the set is full. It reports
// whether the line hit and whether a valid line was evicted.
func (o *lruOracle) ref(line uint64) (hit, evicted bool) {
	s := o.set(line)
	for i, l := range *s {
		if l == line {
			copy((*s)[1:i+1], (*s)[:i])
			(*s)[0] = line
			return true, false
		}
	}
	if len(*s) == o.ways {
		evicted = true
	} else {
		*s = append(*s, 0)
	}
	copy((*s)[1:], *s)
	(*s)[0] = line
	return false, evicted
}

func (o *lruOracle) drop(line uint64) {
	s := o.set(line)
	for i, l := range *s {
		if l == line {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return
		}
	}
}

func (o *lruOracle) has(line uint64) bool {
	for _, l := range *o.set(line) {
		if l == line {
			return true
		}
	}
	return false
}

func (o *lruOracle) occupied() int {
	n := 0
	for _, s := range o.sets {
		n += len(s)
	}
	return n
}

// lines returns the first line and line count of [addr, addr+n).
func (o *lruOracle) lines(addr Addr, n int) (first uint64, count int) {
	if n <= 0 {
		return 0, 0
	}
	first = uint64(addr) >> o.shift
	return first, int((uint64(addr)+uint64(n)-1)>>o.shift - first + 1)
}

// access references count lines from first and returns the hit and miss
// counts, as AccessRange and AccessLines do.
func (o *lruOracle) access(first uint64, count int) (hits, misses int) {
	for i := 0; i < count; i++ {
		if hit, _ := o.ref(first + uint64(i)); hit {
			hits++
		} else {
			misses++
		}
	}
	o.hits += uint64(hits)
	o.misses += uint64(misses)
	return hits, misses
}

// cacheOp is one operation of a mixed stream applied to a Cache and an
// lruOracle side by side.
type cacheOp struct {
	kind byte
	addr Addr
	n    int
}

// applyOp runs op on c and o and fails t at the first outcome that
// differs: hit and miss counts, Install evictions, residency, and the
// cache's global hit and miss counters.
func applyOp(t *testing.T, c *Cache, o *lruOracle, step int, op cacheOp) {
	t.Helper()
	switch op.kind % 9 {
	case 0:
		h, m := c.AccessRange(op.addr, op.n)
		wh, wm := o.access(o.lines(op.addr, op.n))
		if h != wh || m != wm {
			t.Fatalf("op %d AccessRange(%d, %d) = %d/%d hits/misses, oracle %d/%d",
				step, op.addr, op.n, h, m, wh, wm)
		}
	case 1:
		nLines := op.n%64 - 2 // includes zero and negative counts
		h, m := c.AccessLines(op.addr, nLines)
		wh, wm := o.access(uint64(op.addr)>>o.shift, nLines)
		if h != wh || m != wm {
			t.Fatalf("op %d AccessLines(%d, %d) = %d/%d hits/misses, oracle %d/%d",
				step, op.addr, nLines, h, m, wh, wm)
		}
	case 2:
		hit := c.Access(op.addr)
		wh, _ := o.access(uint64(op.addr)>>o.shift, 1)
		if hit != (wh == 1) {
			t.Fatalf("op %d Access(%d) hit=%v, oracle %v", step, op.addr, hit, wh == 1)
		}
	case 3:
		ev := c.Install(op.addr, op.n)
		want := 0
		first, count := o.lines(op.addr, op.n)
		for i := 0; i < count; i++ {
			if _, e := o.ref(first + uint64(i)); e {
				want++
			}
		}
		if ev != want {
			t.Fatalf("op %d Install(%d, %d) evicted %d, oracle %d", step, op.addr, op.n, ev, want)
		}
	case 4:
		c.Invalidate(op.addr, op.n)
		first, count := o.lines(op.addr, op.n)
		for i := 0; i < count; i++ {
			o.drop(first + uint64(i))
		}
	case 5:
		c.Flush()
		for i := range o.sets {
			o.sets[i] = o.sets[i][:0]
		}
	case 6:
		line := uint64(op.addr) >> o.shift
		if got, want := c.Contains(op.addr), o.has(line); got != want {
			t.Fatalf("op %d Contains(%d) = %v, oracle %v", step, op.addr, got, want)
		}
	case 7:
		want := 0
		first, count := o.lines(op.addr, op.n)
		for i := 0; i < count; i++ {
			if o.has(first + uint64(i)) {
				want++
			}
		}
		if got := c.Resident(op.addr, op.n); got != want {
			t.Fatalf("op %d Resident(%d, %d) = %d, oracle %d", step, op.addr, op.n, got, want)
		}
	case 8:
		buf := Buffer{Addr: op.addr, Size: max(op.n, 1)}
		lines := (buf.Size-1)>>o.shift + 1 // i*lineSize < Size
		applyIndexed(t, c, o, step, buf, indexList(op, lines, len(o.sets)))
	}
	if c.Hits != o.hits || c.Misses != o.misses {
		t.Fatalf("op %d: cache counters %d/%d hits/misses, oracle %d/%d",
			step, c.Hits, c.Misses, o.hits, o.misses)
	}
}

// indexList derives an AccessIndexed index list over a buffer of lines
// lines from op: up to 40 indices mixing fresh random lines, repeats of
// the previous index, and lines nsets past it, which fall in the same
// set.
func indexList(op cacheOp, lines, nsets int) []uint32 {
	rnd := uint64(op.addr)*0x9e3779b97f4a7c15 + uint64(op.n) + 1
	idx := make([]uint32, op.n%41)
	for k := range idx {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		r := int(rnd >> 33)
		switch {
		case k > 0 && r%4 == 0:
			idx[k] = idx[k-1]
		case k > 0 && r%4 == 1 && int(idx[k-1])+nsets < lines:
			idx[k] = idx[k-1] + uint32(nsets)
		default:
			idx[k] = uint32(r % lines)
		}
	}
	return idx
}

// applyIndexed runs AccessIndexed(buf, idx) on c and the same lines one
// by one on o, and fails t if the hit or miss counts differ.
func applyIndexed(t *testing.T, c *Cache, o *lruOracle, step int, buf Buffer, idx []uint32) {
	t.Helper()
	h, m := c.AccessIndexed(buf, idx)
	first := uint64(buf.Addr) >> o.shift
	var wh, wm int
	for _, i := range idx {
		lh, lm := o.access(first+uint64(i), 1)
		wh += lh
		wm += lm
	}
	if h != wh || m != wm {
		t.Fatalf("op %d AccessIndexed(%v, %d indices) = %d/%d hits/misses, oracle %d/%d",
			step, buf, len(idx), h, m, wh, wm)
	}
}

// checkOracleEnd compares occupancy and runs the structural audit once a
// stream is done.
func checkOracleEnd(t *testing.T, c *Cache, o *lruOracle) {
	t.Helper()
	if got, want := c.OccupiedLines(), o.occupied(); got != want {
		t.Fatalf("OccupiedLines = %d, oracle %d", got, want)
	}
	if err := c.Audit(); err != nil {
		t.Fatalf("structural audit failed: %v", err)
	}
}

// FuzzCacheLRUOracle drives a fuzz-chosen geometry (16-256 B lines, 1-16
// ways, 1-128 sets) with a mixed stream of every Cache operation and
// compares each outcome with lruOracle. Each op takes four bytes: kind,
// address (a fraction of four cache capacities), sub-line offset and size.
func FuzzCacheLRUOracle(f *testing.F) {
	f.Add(uint8(2), uint8(7), uint8(3), []byte{0, 1, 0, 40, 2, 1, 0, 0, 3, 200, 5, 90, 4, 9, 1, 30, 7, 0, 0, 255})
	f.Add(uint8(0), uint8(0), uint8(0), []byte{1, 9, 0, 9, 2, 9, 0, 0, 6, 9, 0, 0})
	f.Add(uint8(4), uint8(15), uint8(7), []byte{0, 0, 0, 255, 3, 128, 3, 255, 5, 0, 0, 0, 0, 7, 1, 100})
	f.Add(uint8(1), uint8(9), uint8(1), []byte{})

	f.Fuzz(func(t *testing.T, lineSel, waySel, setSel uint8, ops []byte) {
		lineSize := 16 << (int(lineSel) % 5) // 16..256
		ways := 1 + int(waySel)%16           // 1..16
		nsets := 1 << (int(setSel) % 8)      // 1..128
		c := NewCache(lineSize*ways*nsets, lineSize, ways)
		o := newLRUOracle(lineSize, ways, nsets)

		span := 4 * c.Size()
		for i := 0; i+3 < len(ops); i += 4 {
			op := cacheOp{
				kind: ops[i],
				addr: Addr(int(ops[i+1])*span/256 + int(ops[i+2])%lineSize),
				n:    int(ops[i+3]) * span / 256,
			}
			applyOp(t, c, o, i/4, op)
		}
		checkOracleEnd(t, c, o)
	})
}

// TestCacheLRUOracleRandom runs the oracle comparison over 3,000
// pseudo-random geometries of 200 mixed ops each, so a plain `go test`
// covers far more of the space than the fuzz seeds do.
func TestCacheLRUOracleRandom(t *testing.T) {
	rnd := uint64(1)
	next := func() uint64 {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return rnd >> 33
	}
	for g := 0; g < 3000; g++ {
		lineSize := 16 << (next() % 5)
		ways := 1 + int(next()%16)
		nsets := 1 << (next() % 8)
		c := NewCache(lineSize*ways*nsets, lineSize, ways)
		o := newLRUOracle(lineSize, ways, nsets)
		span := uint64(4 * c.Size())
		for i := 0; i < 200; i++ {
			op := cacheOp{
				kind: byte(next()),
				addr: Addr(next() % span),
				// Mostly short ranges, as the simulator issues them,
				// with an occasional range of several capacities.
				n: int(next() % (span / 16)),
			}
			if next()%8 == 0 {
				op.n = int(next() % span)
			}
			applyOp(t, c, o, i, op)
		}
		checkOracleEnd(t, c, o)
	}
}
