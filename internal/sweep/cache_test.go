package sweep

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

type row struct {
	N int
	F float64
	D int64
}

// TestKeyDeterministic checks the properties the cache relies on: equal
// parts hash equally (including pointer vs. value forms), and any
// differing part — value, type, or arrangement — changes the key.
func TestKeyDeterministic(t *testing.T) {
	r := row{N: 3, F: 2.5, D: 7}
	k := Key("v1", "fig", uint64(1), 0.5, r)
	if k != Key("v1", "fig", uint64(1), 0.5, r) {
		t.Fatal("identical parts produced different keys")
	}
	if k != Key("v1", "fig", uint64(1), 0.5, &r) {
		t.Fatal("pointer and value forms of the same struct must hash equally")
	}
	distinct := map[string]string{
		"version": Key("v2", "fig", uint64(1), 0.5, r),
		"kind":    Key("v1", "gif", uint64(1), 0.5, r),
		"seed":    Key("v1", "fig", uint64(2), 0.5, r),
		"scale":   Key("v1", "fig", uint64(1), 0.25, r),
		"field":   Key("v1", "fig", uint64(1), 0.5, row{N: 4, F: 2.5, D: 7}),
		"type":    Key("v1", "fig", int64(1), 0.5, r),
		"fewer":   Key("v1", "fig", uint64(1), 0.5),
	}
	seen := map[string]string{k: "base"}
	for name, other := range distinct {
		if prev, dup := seen[other]; dup {
			t.Errorf("key for %q collides with %q", name, prev)
		}
		seen[other] = name
	}
}

// TestKeyUnsupportedKindPanics checks that a part the canonical encoder
// cannot hash fails loudly instead of silently aliasing configurations.
func TestKeyUnsupportedKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Key(map) did not panic")
		}
	}()
	Key(map[string]int{"a": 1})
}

// TestCachedRunMemo checks in-process memoization: the second identical
// sweep returns the same rows without invoking fn.
func TestCachedRunMemo(t *testing.T) {
	c := NewPointCache("")
	var calls atomic.Int64
	key := func(i int) string { return Key("memo", i) }
	fn := func(i int) row {
		calls.Add(1)
		return row{N: i, F: float64(i) / 2}
	}
	first, _ := CachedRunCtx(bg, c, 1, 4, key, fn)
	second, _ := CachedRunCtx(bg, c, 1, 4, key, fn)
	if calls.Load() != 4 {
		t.Fatalf("fn ran %d times, want 4 (second sweep must be all hits)", calls.Load())
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("row %d: cached %+v != computed %+v", i, second[i], first[i])
		}
	}
	if hits, misses := c.Stats(); hits != 4 || misses != 4 {
		t.Fatalf("stats = %d hits, %d misses; want 4, 4", hits, misses)
	}
}

// TestCachedRunPersists checks the disk path: a fresh PointCache over
// the same directory serves every point without recomputation — the
// cross-invocation reuse ioatbench -pointcache relies on.
func TestCachedRunPersists(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	key := func(i int) string { return Key("disk", i) }
	fn := func(i int) row {
		calls.Add(1)
		return row{N: i, D: int64(i) * 1000}
	}
	first, _ := CachedRunCtx(bg, NewPointCache(dir), 1, 3, key, fn)
	second, _ := CachedRunCtx(bg, NewPointCache(dir), 1, 3, key, fn)
	if calls.Load() != 3 {
		t.Fatalf("fn ran %d times, want 3 (second cache must hit the files)", calls.Load())
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("row %d: disk %+v != computed %+v", i, second[i], first[i])
		}
	}
}

// TestCachedRunCorruptedFile checks that an undecodable cache entry is
// treated as a miss: the point is recomputed and the entry rewritten.
func TestCachedRunCorruptedFile(t *testing.T) {
	dir := t.TempDir()
	key := func(i int) string { return Key("corrupt", i) }
	CachedRunCtx(bg, NewPointCache(dir), 1, 1, key, func(i int) row { return row{N: 42} })
	path := filepath.Join(dir, key(0)+".gob")
	if err := os.WriteFile(path, []byte("not gob at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	c := NewPointCache(dir)
	out, _ := CachedRunCtx(bg, c, 1, 1, key, func(i int) row {
		calls.Add(1)
		return row{N: 42}
	})
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1 (corrupted entry must be recomputed)", calls.Load())
	}
	if out[0].N != 42 {
		t.Fatalf("recomputed row = %+v", out[0])
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 0, 1", hits, misses)
	}
	// The rewrite must have healed the entry.
	var calls2 atomic.Int64
	CachedRunCtx(bg, NewPointCache(dir), 1, 1, key, func(i int) row {
		calls2.Add(1)
		return row{N: 42}
	})
	if calls2.Load() != 0 {
		t.Fatal("entry was not rewritten after the corrupted read")
	}
}

// TestCachedRunConcurrent drives one PointCache from a parallel sweep
// with colliding keys (every worker computes the same 8 points), the
// shape the race detector needs to audit the memo and disk paths.
func TestCachedRunConcurrent(t *testing.T) {
	c := NewPointCache(t.TempDir())
	key := func(i int) string { return Key("conc", i%8) }
	fn := func(i int) row { return row{N: i % 8} }
	for pass := 0; pass < 2; pass++ {
		out, _ := CachedRunCtx(bg, c, 8, 64, key, fn)
		for i, r := range out {
			if r.N != i%8 {
				t.Fatalf("pass %d row %d = %+v, want N=%d", pass, i, r, i%8)
			}
		}
	}
	if hits, misses := c.Stats(); hits+misses != 128 {
		t.Fatalf("stats = %d hits + %d misses, want 128 lookups", hits, misses)
	}
}

// TestCachedRunNil checks a nil cache degrades to a plain RunCtx.
func TestCachedRunNil(t *testing.T) {
	out, _ := CachedRunCtx[int](bg, nil, 1, 3, func(i int) string {
		t.Fatal("key must not be called without a cache")
		return ""
	}, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}
