package serve

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ioatsim/internal/bench"
)

// TestJobsLeaveNoGoroutines runs a cold data-center job to completion
// and cancels a second one between sweep points, then drains the server:
// every simulation the jobs built must have released its process
// goroutines, so the count returns to where it was before the server
// started.
func TestJobsLeaveNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	s := New(Options{Workers: 1})
	s.Start()

	cold, err := s.Submit(bench.Request{Runners: []string{"fig8a"}, Scale: 0.03, Parallel: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, cold.ID, StateDone)

	// A different seed misses the cache; cancel as soon as its first
	// point has been stored, so the sweep stops at a point boundary.
	stored := s.Cache().Len()
	j, err := s.Submit(bench.Request{Runners: []string{"fig8a"}, Seed: 2, Scale: 0.03, Parallel: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); s.Cache().Len() == stored; {
		if time.Now().After(deadline) {
			t.Fatal("no sweep point finished")
		}
		time.Sleep(time.Millisecond)
	}
	j.Cancel()
	waitTerminal(t, s, j.ID, StateCanceled)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > start && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > start {
		t.Fatalf("%d goroutines after the jobs and drain, %d before", n, start)
	}
}
