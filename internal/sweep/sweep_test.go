package sweep

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// bg is the context of sweeps that are never cancelled.
var bg = context.Background()

func TestRunOrdersResultsByIndex(t *testing.T) {
	for _, parallel := range []int{1, 2, 8, 0} {
		got, _ := RunCtx(bg, parallel, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	if got, _ := RunCtx(bg, 4, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0 returned %v, want nil", got)
	}
	got, _ := RunCtx(bg, 4, 1, func(i int) string { return "only" })
	if len(got) != 1 || got[0] != "only" {
		t.Fatalf("n=1 returned %v", got)
	}
}

func TestRunCallsEachIndexOnce(t *testing.T) {
	var calls [64]int32
	RunCtx(bg, 8, len(calls), func(i int) struct{} {
		atomic.AddInt32(&calls[i], 1)
		return struct{}{}
	})
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("index %d called %d times", i, c)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	var cur, peak int32
	RunCtx(bg, 3, 50, func(i int) struct{} {
		n := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		runtime.Gosched()
		atomic.AddInt32(&cur, -1)
		return struct{}{}
	})
	if peak > 3 {
		t.Fatalf("observed %d concurrent points, limit 3", peak)
	}
}

func TestRunPropagatesPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	RunCtx(bg, 4, 10, func(i int) int {
		if i == 7 {
			panic("boom")
		}
		return i
	})
}

func TestWorkers(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Fatal("Workers(0) should resolve to GOMAXPROCS")
	}
	if Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Fatal("Workers(<0) should resolve to GOMAXPROCS")
	}
	if Workers(5) != 5 {
		t.Fatal("Workers(5) != 5")
	}
}
