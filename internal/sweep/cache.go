// Point-level result caching for sweeps.
//
// Every sweep point is a pure function of its configuration: the same
// seed, scale, parameter set and code produce byte-identical rows (the
// property the golden corpus pins). That makes each point's result
// content-addressable — Key hashes a canonical encoding of everything
// the point depends on, and PointCache memoizes the gob-encoded row
// under that key, in process and optionally on disk. Repeated
// invocations (re-rendering figures, iterating on one experiment while
// the rest are untouched, CI re-runs at a pinned code version) then
// skip the simulation entirely.
//
// The cache can only be trusted as far as the key reaches: callers must
// fold in a code-version tag and bump it whenever simulation semantics
// change, because the hash sees configurations, not the model code.
package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
)

// Key returns the content-addressed identity of one sweep point: a hex
// SHA-256 over a canonical encoding of parts. Parts may be numbers,
// bools, strings, and (pointers to) structs, slices or arrays of those;
// struct fields are folded in by name in declaration order, so the key
// is deterministic across processes. Unsupported kinds (maps, funcs,
// channels) panic: silently skipping a part would alias distinct
// configurations to one key.
func Key(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		writeCanon(h, reflect.ValueOf(p))
		h.Write([]byte{0x1f})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeCanon encodes v deterministically. Every scalar is prefixed with
// a kind tag and structs with their full type name, so values of
// different types never collide ("1" as int vs. uint vs. "1" the
// string), and reordering or renaming struct fields changes the key.
func writeCanon(w io.Writer, v reflect.Value) {
	if !v.IsValid() {
		io.WriteString(w, "nil")
		return
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		writeCanon(w, v.Elem())
	case reflect.Bool:
		fmt.Fprintf(w, "b%t", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "i%d", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(w, "u%d", v.Uint())
	case reflect.Float32, reflect.Float64:
		io.WriteString(w, "f")
		io.WriteString(w, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		// Length-prefixed so adjacent strings can't run together.
		fmt.Fprintf(w, "s%d:%s", v.Len(), v.String())
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			writeCanon(w, v.Index(i))
			io.WriteString(w, ",")
		}
		io.WriteString(w, "]")
	case reflect.Struct:
		t := v.Type()
		fmt.Fprintf(w, "{%s", t.String())
		for i := 0; i < t.NumField(); i++ {
			fmt.Fprintf(w, ";%s=", t.Field(i).Name)
			writeCanon(w, v.Field(i))
		}
		io.WriteString(w, "}")
	default:
		panic("sweep: key part of unsupported kind " + v.Kind().String())
	}
}

// PointCache memoizes sweep-point results by content-addressed key. An
// in-process map serves hits across the figures of one invocation; with
// a directory it also persists each result as <dir>/<key>.gob, so later
// invocations at the same configuration and code version skip the
// simulation. Safe for concurrent use by parallel sweep workers.
//
// The in-process memo is optionally bounded (see Bound): entries are
// kept on an LRU list and the oldest are dropped once the entry or
// payload-byte cap is exceeded, so a long-running server can share one
// cache across an unbounded job stream without growing without limit.
// Eviction only forgets the in-process copy — a persisted entry is
// re-promoted from disk on the next lookup.
type PointCache struct {
	dir string

	mu         sync.Mutex
	memo       map[string]*lruEntry
	head, tail *lruEntry // LRU list: head = most recent, tail = next victim
	bytes      int64     // sum of memoized payload lengths
	maxEntries int       // 0 = unbounded
	maxBytes   int64     // 0 = unbounded
	hits       uint64
	misses     uint64
	evictions  uint64
}

// lruEntry is one memoized result on the recency list.
type lruEntry struct {
	key        string
	blob       []byte
	prev, next *lruEntry
}

// NewPointCache returns an unbounded cache memoizing in process; if dir
// is non-empty, results are also persisted there (the directory is
// created on first store).
func NewPointCache(dir string) *PointCache {
	return &PointCache{dir: dir, memo: make(map[string]*lruEntry)}
}

// Bound caps the in-process memo at maxEntries results and maxBytes
// payload bytes (either 0 = unbounded in that dimension) and returns c.
// Exceeding a cap evicts least-recently-used entries, except that the
// most recent entry always stays — a single result larger than maxBytes
// must not thrash. Safe to call at any point; existing excess entries
// are evicted immediately.
func (c *PointCache) Bound(maxEntries int, maxBytes int64) *PointCache {
	c.mu.Lock()
	c.maxEntries = maxEntries
	c.maxBytes = maxBytes
	c.evict()
	c.mu.Unlock()
	return c
}

// Dir reports the persistence directory ("" for memo-only).
func (c *PointCache) Dir() string { return c.dir }

// Stats reports how many point lookups hit and missed so far.
func (c *PointCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions reports how many memo entries the LRU bound has dropped.
func (c *PointCache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Len reports the number of in-process memo entries.
func (c *PointCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.memo)
}

// Bytes reports the payload bytes held by the in-process memo.
func (c *PointCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// unlink removes e from the recency list.
func (c *PointCache) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recent entry.
func (c *PointCache) pushFront(e *lruEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// over reports whether the memo exceeds a configured cap.
func (c *PointCache) over() bool {
	return (c.maxEntries > 0 && len(c.memo) > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes)
}

// evict drops least-recently-used entries until the memo fits its caps,
// always sparing the most recent entry. Callers hold c.mu.
func (c *PointCache) evict() {
	for c.over() && c.tail != nil && c.tail != c.head {
		victim := c.tail
		c.unlink(victim)
		delete(c.memo, victim.key)
		c.bytes -= int64(len(victim.blob))
		c.evictions++
	}
}

// insert records key -> blob in the memo (replacing any existing entry),
// promotes it to most recent, and enforces the caps. Callers hold c.mu.
func (c *PointCache) insert(key string, blob []byte) {
	if e, ok := c.memo[key]; ok {
		c.bytes += int64(len(blob)) - int64(len(e.blob))
		e.blob = blob
		c.unlink(e)
		c.pushFront(e)
	} else {
		e := &lruEntry{key: key, blob: blob}
		c.memo[key] = e
		c.bytes += int64(len(blob))
		c.pushFront(e)
	}
	c.evict()
}

// lookup returns the stored encoding for key, consulting the memo map
// first and the persistence directory second (promoting disk hits into
// the memo).
func (c *PointCache) lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	if e, ok := c.memo[key]; ok {
		blob := e.blob
		c.unlink(e)
		c.pushFront(e)
		c.mu.Unlock()
		return blob, true
	}
	c.mu.Unlock()
	if c.dir == "" {
		return nil, false
	}
	blob, err := os.ReadFile(filepath.Join(c.dir, key+".gob"))
	if err != nil {
		return nil, false
	}
	c.mu.Lock()
	c.insert(key, blob)
	c.mu.Unlock()
	return blob, true
}

// store records the encoding for key. Disk writes go through a temp
// file and rename, so a crashed or concurrent run never leaves a
// half-written entry (a corrupted entry would be recomputed anyway, see
// CachedRunCtx). Persistence errors are deliberately swallowed: the cache
// is an accelerator, never a correctness dependency.
func (c *PointCache) store(key string, blob []byte) {
	c.mu.Lock()
	c.insert(key, blob)
	c.mu.Unlock()
	if c.dir == "" {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(c.dir, key+".gob")); err != nil {
		os.Remove(tmp.Name())
	}
}

// count adjusts the hit/miss tallies.
func (c *PointCache) count(hit bool) {
	c.mu.Lock()
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
}

// CachedRunCtx is RunCtx with per-point memoization: before computing
// point i, the cache is consulted at key(i), and a decodable hit is
// returned without running fn. Misses — including entries that fail to
// decode, e.g. a truncated or corrupted cache file — run fn and store
// its gob-encoded result (T must therefore have exported fields). A nil
// cache degrades to plain RunCtx. It keeps RunCtx's cancellation
// contract: no new point (cached or not) starts once ctx is cancelled,
// and the call returns ctx.Err() alongside the partial results.
func CachedRunCtx[T any](ctx context.Context, c *PointCache, parallel, n int, key func(i int) string, fn func(i int) T) ([]T, error) {
	if c == nil {
		return RunCtx(ctx, parallel, n, fn)
	}
	return RunCtx(ctx, parallel, n, func(i int) T {
		k := key(i)
		if blob, ok := c.lookup(k); ok {
			var out T
			if gob.NewDecoder(bytes.NewReader(blob)).Decode(&out) == nil {
				c.count(true)
				return out
			}
		}
		c.count(false)
		out := fn(i)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&out); err != nil {
			panic(fmt.Sprintf("sweep: point result %T not cacheable: %v", out, err))
		}
		c.store(k, buf.Bytes())
		return out
	})
}
