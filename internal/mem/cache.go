package mem

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Cache is a set-associative LRU cache with write-allocate semantics,
// indexed by synthetic physical address. It tracks only presence, not
// data; the cost model turns hit/miss outcomes into time.
//
// Each set owns one contiguous block of 2*ways uint32 words: its tags,
// then their LRU stamps. At the default 8 ways that block is exactly 64
// bytes. A tag is the line number with the set-index bits dropped, plus
// one, so 0 means invalid; an invalid way has stamp 0. Way 0 always holds
// the set's most recently used line: a repeat hit there — the common case
// under streaming copies — costs one compare and one stamp store, a hit
// elsewhere swaps that way with way 0, and a fill moves way 0's line into
// the victim's slot (the minimum stamp, invalid ways first) before taking
// way 0 itself. Outcomes depend only on which lines a set holds and the
// order of their stamps, so the slot shuffling is invisible: hits, misses
// and evictions are exactly those of textbook LRU (FuzzCacheLRUOracle
// checks this against a naive reference).
//
// The bulk walkers advance a set-base cursor per line (consecutive lines
// index consecutive sets; the tag steps when the cursor wraps) and keep
// the tick in a register. Two 32-bit limits are checked once per call,
// never per line: a range whose last tag needs more than 32 bits panics
// with errTagRange instead of aliasing, and a tick about to wrap is
// renormalised first (see renormalise).
type Cache struct {
	lineSize int
	ways     int
	nsets    int
	stride   int  // 2*ways: words of state per set
	shift    uint // log2(lineSize)
	setBits  uint // log2(nsets)
	mask     uint64

	// state holds per-set blocks: state[set*stride : set*stride+ways] are
	// the tags, the next ways words the parallel LRU stamps.
	state []uint32
	tick  uint32

	Hits   uint64
	Misses uint64
}

// errTagRange is the panic value for a range the 32-bit state cannot
// hold: a line whose tag needs more than 32 bits, or a single call that
// stamps more lines than the tick can count.
var errTagRange = errors.New("mem: range exceeds the cache's 32-bit tag range")

// errLineIndex is the panic value for an AccessIndexed index that names
// a line outside the buffer.
var errLineIndex = errors.New("mem: line index outside the buffer")

// NewCache returns a cache of the given total size, line size and
// associativity. Size must be a multiple of lineSize*ways and the derived
// set count must be a power of two.
func NewCache(size, lineSize, ways int) *Cache {
	if size <= 0 || lineSize <= 0 || ways <= 0 {
		panic("mem: bad cache geometry")
	}
	nsets := size / (lineSize * ways)
	if nsets == 0 || nsets&(nsets-1) != 0 {
		panic("mem: cache set count must be a power of two")
	}
	if lineSize&(lineSize-1) != 0 {
		panic("mem: line size must be a power of two")
	}
	return &Cache{
		lineSize: lineSize,
		ways:     ways,
		nsets:    nsets,
		stride:   2 * ways,
		shift:    uint(bits.TrailingZeros(uint(lineSize))),
		setBits:  uint(bits.TrailingZeros(uint(nsets))),
		mask:     uint64(nsets - 1),
		state:    make([]uint32, nsets*2*ways),
	}
}

// LineSize returns the cache line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// Size returns the total capacity in bytes.
func (c *Cache) Size() int { return c.nsets * c.ways * c.lineSize }

// locate returns the state-block base and tag of line first, after
// checking that the tag of line last (the end of the range starting at
// first) fits in 32 bits; the walkers then derive every later tag by
// stepping, so no line of the range can alias.
func (c *Cache) locate(first, last uint64) (base int, tag uint32) {
	if last>>c.setBits >= math.MaxUint32 {
		panic(errTagRange)
	}
	return int(first&c.mask) * c.stride, uint32(first>>c.setBits) + 1
}

// reserve makes room for n more ticks, renormalising the stamps first if
// the tick would wrap.
func (c *Cache) reserve(n int) {
	if uint64(n) > uint64(math.MaxUint32-c.tick) {
		c.renormalise()
		if uint64(n) > uint64(math.MaxUint32-c.tick) {
			panic(errTagRange)
		}
	}
}

// renormalise rewrites every set's stamps as ranks in 1..ways that keep
// their order, then restarts the tick at ways. Each set is insertion-
// sorted newest first, which keeps the most recent line in way 0 and
// sinks invalid ways (stamp 0) to the end; only the order of stamps
// within a set decides victims, so every later outcome is unchanged.
func (c *Cache) renormalise() {
	ways := c.ways
	for base := 0; base < len(c.state); base += c.stride {
		tags := c.state[base : base+ways]
		last := c.state[base+ways : base+2*ways]
		for i := 1; i < ways; i++ {
			t, s := tags[i], last[i]
			j := i
			for ; j > 0 && last[j-1] < s; j-- {
				tags[j], last[j] = tags[j-1], last[j-1]
			}
			tags[j], last[j] = t, s
		}
		for w := range last {
			if last[w] != 0 {
				last[w] = uint32(ways - w)
			}
		}
	}
	c.tick = uint32(ways)
}

// touch references the line with the given tag in the set whose state
// block starts at base, allocating it on miss, stamping it with tick and
// moving it to way 0. It reports whether the line hit and whether a miss
// evicted a valid line.
func (c *Cache) touch(base int, tag, tick uint32) (hit, evicted bool) {
	if c.ways == 8 {
		// Constant-width fast path for the default 8-way geometry: a
		// 16-word view of the 64-byte set block lets the compiler drop
		// per-way bounds checks. Past the way-0 check the scan builds a
		// match bitmask instead of exiting early: the hit way lands at
		// a random position, so an early exit mispredicts on nearly
		// every lookup, while the mask's compares are mostly false and
		// leave one hit/miss branch.
		st := (*[16]uint32)(c.state[base:])
		if st[0] == tag {
			st[8] = tick
			return true, false
		}
		m := uint(0)
		if st[1] == tag {
			m |= 1 << 1
		}
		if st[2] == tag {
			m |= 1 << 2
		}
		if st[3] == tag {
			m |= 1 << 3
		}
		if st[4] == tag {
			m |= 1 << 4
		}
		if st[5] == tag {
			m |= 1 << 5
		}
		if st[6] == tag {
			m |= 1 << 6
		}
		if st[7] == tag {
			m |= 1 << 7
		}
		if m != 0 {
			w := bits.TrailingZeros(m)
			st[w], st[8+w] = st[0], st[8]
			st[0], st[8] = tag, tick
			return true, false
		}
		// Victim: the minimum of (stamp<<3 | way), a unique key whose
		// low bits name the way (the lowest one among invalid ways,
		// the only ways that share a stamp). A branchless tree of
		// mins beats a compare loop, whose branches follow the
		// stamps' order and mispredict.
		k := min64(
			min64(min64(int64(st[8])<<3, int64(st[9])<<3|1), min64(int64(st[10])<<3|2, int64(st[11])<<3|3)),
			min64(min64(int64(st[12])<<3|4, int64(st[13])<<3|5), min64(int64(st[14])<<3|6, int64(st[15])<<3|7)))
		w := int(k & 7)
		evicted = st[w] != 0
		st[w], st[8+w] = st[0], st[8]
		st[0], st[8] = tag, tick
		return false, evicted
	}
	ways := c.ways
	tags := c.state[base : base+ways]
	last := c.state[base+ways : base+2*ways]
	if tags[0] == tag {
		last[0] = tick
		return true, false
	}
	w := 1
	for w < len(tags) && tags[w] != tag {
		w++
	}
	hit = w < len(tags)
	if !hit {
		w = 0
		for v := 1; v < len(last); v++ {
			if last[v] < last[w] {
				w = v
			}
		}
		evicted = tags[w] != 0
	}
	tags[w], last[w] = tags[0], last[0]
	tags[0], last[0] = tag, tick
	return hit, evicted
}

// Access touches the line containing addr, allocating it on miss, and
// reports whether it was a hit.
//
//ioat:hotpath
func (c *Cache) Access(addr Addr) bool {
	hits, _ := c.accessLines(uint64(addr)>>c.shift, 1)
	return hits == 1
}

// Contains reports whether the line holding addr is resident, without
// updating LRU state or statistics.
func (c *Cache) Contains(addr Addr) bool {
	line := uint64(addr) >> c.shift
	base, tag := c.locate(line, line)
	for _, t := range c.state[base : base+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// accessLines touches n consecutive cache lines starting at line number
// first, allocating on miss, and returns the hit and miss counts. This is
// the shared core of Access, AccessRange and AccessLines: consecutive
// lines index consecutive sets, so the walk advances base by one set
// stride per line (wrapping, and stepping the tag, at the end of the
// array) and keeps the tick in a register.
func (c *Cache) accessLines(first uint64, n int) (hits, misses int) {
	base, tag := c.locate(first, first+uint64(n)-1)
	c.reserve(n)
	tick := c.tick
	st, ways := c.state, c.ways
	for i := 0; i < n; i++ {
		tick++
		// A repeat hit on way 0, the common case on streaming copies,
		// is settled here without the call.
		if st[base] == tag {
			st[base+ways] = tick
			hits++
		} else if hit, _ := c.touch(base, tag, tick); hit {
			hits++
		}
		base += c.stride
		if base == len(c.state) {
			base = 0
			tag++
		}
	}
	misses = n - hits
	c.commit(tick, hits, misses)
	return hits, misses
}

// AccessRange touches every line of [addr, addr+n) and returns the hit
// and miss counts. It is the bulk path under every modeled copy and
// checksum.
//
//ioat:hotpath
func (c *Cache) AccessRange(addr Addr, n int) (hits, misses int) {
	if n <= 0 {
		return 0, 0
	}
	first := uint64(addr) >> c.shift
	last := (uint64(addr) + uint64(n) - 1) >> c.shift
	return c.accessLines(first, int(last-first+1))
}

// AccessLines touches nLines consecutive lines starting with the one
// holding addr — the dependent-access pattern of protocol-header and
// connection-state reads, priced per line by Model.RandomCost.
//
//ioat:hotpath
func (c *Cache) AccessLines(addr Addr, nLines int) (hits, misses int) {
	if nLines <= 0 {
		return 0, 0
	}
	return c.accessLines(uint64(addr)>>c.shift, nLines)
}

// AccessIndexed touches, in order, the lines of buf named by idx —
// index i is the line holding buf.Addr + i*LineSize — allocating on miss,
// and returns the hit and miss counts. Outcomes, counters and final state
// are exactly those of one AccessLines(buf.Addr+i*LineSize, 1) call per
// index, but the tag-range check (on the buffer's last line) and the
// tick reservation run once per call: each index then costs a bounds
// check, a way-0 compare and, past way 0, one touch. An index at or past
// the buffer's end panics with errLineIndex, after the lines before it
// have been counted.
//
//ioat:hotpath
func (c *Cache) AccessIndexed(buf Buffer, idx []uint32) (hits, misses int) {
	if len(idx) == 0 {
		return 0, 0
	}
	first := uint64(buf.Addr) >> c.shift
	n := uint64(max(buf.Size, 0)+c.lineSize-1) >> c.shift
	if n == 0 {
		panic(errLineIndex)
	}
	c.locate(first, first+n-1)
	c.reserve(len(idx))
	tick := c.tick
	st, ways, stride, mask, setBits := c.state, c.ways, c.stride, c.mask, c.setBits
	for k, i := range idx {
		if uint64(i) >= n {
			c.commit(tick, hits, k-hits)
			panic(errLineIndex)
		}
		line := first + uint64(i)
		base := int(line&mask) * stride
		tag := uint32(line>>setBits) + 1
		tick++
		if st[base] == tag {
			st[base+ways] = tick
			hits++
		} else if hit, _ := c.touch(base, tag, tick); hit {
			hits++
		}
	}
	misses = len(idx) - hits
	c.commit(tick, hits, misses)
	return hits, misses
}

// commit stores a walker's tick and adds its hit and miss counts to the
// cache's totals.
func (c *Cache) commit(tick uint32, hits, misses int) {
	c.tick = tick
	c.Hits += uint64(hits)
	c.Misses += uint64(misses)
}

// Install brings every line of [addr, addr+n) into the cache without
// counting hits or misses — the model for direct cache placement (DCA).
// It returns how many valid lines belonging to other addresses were
// evicted to make room: the pollution a full-packet placement inflicts
// on the rest of the system.
//
//ioat:hotpath
func (c *Cache) Install(addr Addr, n int) (evicted int) {
	if n <= 0 {
		return 0
	}
	first := uint64(addr) >> c.shift
	lastLine := (uint64(addr) + uint64(n) - 1) >> c.shift
	nLines := int(lastLine - first + 1)
	base, tag := c.locate(first, lastLine)
	c.reserve(nLines)
	tick := c.tick
	for i := 0; i < nLines; i++ {
		tick++
		if _, ev := c.touch(base, tag, tick); ev {
			evicted++
		}
		base += c.stride
		if base == len(c.state) {
			base = 0
			tag++
		}
	}
	c.tick = tick
	return evicted
}

// Invalidate drops every line of [addr, addr+n) — the coherence action a
// DMA write forces on the CPU cache (paper §2.2.2). The whole run of
// consecutive sets is walked with one cursor; LRU order and the tick are
// untouched, as invalidation is not a reference.
//
//ioat:hotpath
func (c *Cache) Invalidate(addr Addr, n int) {
	if n <= 0 {
		return
	}
	first := uint64(addr) >> c.shift
	lastLine := (uint64(addr) + uint64(n) - 1) >> c.shift
	nLines := int(lastLine - first + 1)
	base, tag := c.locate(first, lastLine)
	if c.ways == 8 {
		for i := 0; i < nLines; i++ {
			st := (*[16]uint32)(c.state[base:])
			for w := 0; w < 8; w++ {
				if st[w] == tag {
					st[w] = 0
					st[8+w] = 0
					break
				}
			}
			base += 16
			if base == len(c.state) {
				base = 0
				tag++
			}
		}
		return
	}
	ways := c.ways
	for i := 0; i < nLines; i++ {
		tags := c.state[base : base+ways]
		for w := range tags {
			if tags[w] == tag {
				tags[w] = 0
				c.state[base+ways+w] = 0
				break
			}
		}
		base += c.stride
		if base == len(c.state) {
			base = 0
			tag++
		}
	}
}

// Flush empties the cache.
func (c *Cache) Flush() {
	for i := range c.state {
		c.state[i] = 0
	}
}

// OccupiedLines returns how many valid lines the cache currently holds.
func (c *Cache) OccupiedLines() int {
	count := 0
	for base := 0; base < len(c.state); base += c.stride {
		for _, t := range c.state[base : base+c.ways] {
			if t != 0 {
				count++
			}
		}
	}
	return count
}

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return c.nsets * c.ways }

// Audit walks the whole structure and verifies the invariants the
// encoding relies on, set by set: no stamp is later than the tick, an
// invalid way has stamp 0, no two ways hold the same tag, and a valid
// way 0 holds the set's largest stamp. It returns the first violation
// found, or nil. The walk is O(lines), so the invariant checker runs it
// periodically and at the end of a run, not per access.
func (c *Cache) Audit() error {
	for set := 0; set < c.nsets; set++ {
		base := set * c.stride
		tags := c.state[base : base+c.ways]
		last := c.state[base+c.ways : base+2*c.ways]
		for i := range tags {
			if last[i] > c.tick {
				return fmt.Errorf("mem: set %d way %d LRU stamp %d is later than the tick %d",
					set, i, last[i], c.tick)
			}
			if tags[i] == 0 {
				if last[i] != 0 {
					return fmt.Errorf("mem: set %d way %d is invalid but has LRU stamp %d",
						set, i, last[i])
				}
				continue
			}
			if i > 0 && tags[0] != 0 && last[i] >= last[0] {
				return fmt.Errorf("mem: set %d way %d LRU stamp %d is not older than way 0's",
					set, i, last[i])
			}
			for j := i + 1; j < len(tags); j++ {
				if tags[j] == tags[i] {
					return fmt.Errorf("mem: set %d holds duplicate tag %#x (ways %d and %d)",
						set, tags[i], i, j)
				}
			}
		}
	}
	return nil
}

// Resident returns how many lines of [addr, addr+n) are currently cached.
func (c *Cache) Resident(addr Addr, n int) int {
	if n <= 0 {
		return 0
	}
	count := 0
	first := uint64(addr) >> c.shift
	last := (uint64(addr) + uint64(n) - 1) >> c.shift
	for l := first; l <= last; l++ {
		if c.Contains(Addr(l << c.shift)) {
			count++
		}
	}
	return count
}

// min64 returns the smaller of a and b without a branch; a-b must not
// overflow.
func min64(a, b int64) int64 {
	d := a - b
	return b + d&(d>>63)
}
