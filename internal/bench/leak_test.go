package bench

import (
	"runtime"
	"testing"
	"time"
)

// TestFiguresLeaveNoGoroutines runs a data-center, a PVFS and an IPC
// figure twice each in one process. Their servers' accept loops and
// workers park forever once a run ends; every cluster must be closed so
// those goroutines exit, leaving the count where it started.
func TestFiguresLeaveNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	for _, id := range []string{"fig8a", "fig10a", "extipc"} {
		r, ok := Find(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		for run := 0; run < 2; run++ {
			r.Run(Config{Seed: 1, Scale: 0.03, Parallel: 1})
			if n := settleGoroutines(start); n > start {
				t.Fatalf("%s run %d: %d goroutines, %d before the first run", id, run+1, n, start)
			}
		}
	}
}

// settleGoroutines waits up to a second for the goroutine count to drop
// back to want (exited goroutines are reaped asynchronously) and returns
// the last count seen.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
