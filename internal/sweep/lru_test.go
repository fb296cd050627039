package sweep

import (
	"fmt"
	"testing"
)

// fill stores n distinct single-byte-payload entries through the public
// CachedRunCtx path so the LRU sees realistic traffic.
func fill(c *PointCache, lo, hi int) {
	for i := lo; i < hi; i++ {
		i := i
		CachedRunCtx(bg, c, 1, 1, func(int) string { return Key("lru", i) },
			func(int) int { return i })
	}
}

func TestBoundEvictsOldestByEntries(t *testing.T) {
	c := NewPointCache("").Bound(4, 0)
	fill(c, 0, 10)
	if got := c.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := c.Evictions(); got != 6 {
		t.Fatalf("Evictions = %d, want 6", got)
	}
	// The four most recent keys (6..9) survive; the oldest are gone.
	for i := 6; i < 10; i++ {
		if _, ok := c.lookup(Key("lru", i)); !ok {
			t.Errorf("recent key %d evicted", i)
		}
	}
	if _, ok := c.lookup(Key("lru", 0)); ok {
		t.Error("oldest key survived a full eviction cycle")
	}
}

func TestBoundEvictsByBytes(t *testing.T) {
	c := NewPointCache("")
	// Store via the internal path so payload sizes are exact.
	for i := 0; i < 8; i++ {
		c.store(fmt.Sprintf("k%d", i), make([]byte, 100))
	}
	if c.Bytes() != 800 {
		t.Fatalf("Bytes = %d, want 800", c.Bytes())
	}
	c.Bound(0, 250)
	if c.Bytes() > 250 {
		t.Fatalf("Bytes = %d after Bound(0, 250)", c.Bytes())
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestBoundSparesNewestOversizedEntry(t *testing.T) {
	c := NewPointCache("").Bound(0, 10)
	c.store("big", make([]byte, 1000))
	if c.Len() != 1 {
		t.Fatalf("a single oversized entry must stay memoized; Len = %d", c.Len())
	}
	c.store("big2", make([]byte, 2000))
	if c.Len() != 1 || c.Bytes() != 2000 {
		t.Fatalf("newest oversized entry must replace the older one; Len = %d Bytes = %d",
			c.Len(), c.Bytes())
	}
}

func TestLookupPromotesRecency(t *testing.T) {
	c := NewPointCache("").Bound(2, 0)
	c.store("a", []byte{1})
	c.store("b", []byte{2})
	if _, ok := c.lookup("a"); !ok { // promote a above b
		t.Fatal("a missing")
	}
	c.store("c", []byte{3}) // must evict b, not a
	if _, ok := c.lookup("a"); !ok {
		t.Error("a was evicted despite being promoted")
	}
	if _, ok := c.lookup("b"); ok {
		t.Error("b survived; LRU order ignored the promotion")
	}
}

func TestEvictionForgetsMemoOnlyNotDisk(t *testing.T) {
	dir := t.TempDir()
	c := NewPointCache(dir).Bound(1, 0)
	c.store("x", []byte{1, 2, 3})
	c.store("y", []byte{4}) // evicts x from the memo
	if got, ok := c.lookup("x"); !ok || len(got) != 3 {
		t.Fatalf("evicted entry not re-promoted from disk: ok=%v len=%d", ok, len(got))
	}
}

func TestReplaceAdjustsBytes(t *testing.T) {
	c := NewPointCache("")
	c.store("k", make([]byte, 100))
	c.store("k", make([]byte, 40))
	if c.Bytes() != 40 || c.Len() != 1 {
		t.Fatalf("replace accounting wrong: Bytes=%d Len=%d", c.Bytes(), c.Len())
	}
}
