package sim

import (
	"runtime"
	"testing"
	"time"
)

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

// TestCloseParkedProc ends a process parked forever on an empty channel:
// its goroutine exits, it leaves the live list, and the code after the
// park never runs.
func TestCloseParkedProc(t *testing.T) {
	start := runtime.NumGoroutine()
	s := New()
	ch := NewChan[int](s)
	resumed := false
	p := s.Spawn("waiter", func(p *Proc) {
		ch.Recv(p)
		resumed = true
	})
	s.Run()
	if len(s.live) != 1 || p.dead {
		t.Fatalf("before Close: %d live procs, dead=%v; want 1 parked", len(s.live), p.dead)
	}
	switches := s.ProcSwitches()
	s.Close()
	if resumed {
		t.Fatal("Close ran the code after the park")
	}
	if !p.dead || len(s.live) != 0 {
		t.Fatalf("after Close: dead=%v, %d live procs", p.dead, len(s.live))
	}
	if got := s.ProcSwitches(); got != switches {
		t.Fatalf("Close counted %d process switches", got-switches)
	}
	if n := settleGoroutines(start); n > start {
		t.Fatalf("goroutines: %d after Close, %d before the simulator", n, start)
	}
}

// TestCloseNeverStartedProc ends a process whose spawn event never
// dispatched: its function must not run.
func TestCloseNeverStartedProc(t *testing.T) {
	start := runtime.NumGoroutine()
	s := New()
	ran := false
	s.SpawnAfter(time.Second, "late", func(p *Proc) { ran = true })
	s.RunUntil(Time(time.Millisecond))
	s.Close()
	if ran {
		t.Fatal("Close started a process that was never scheduled")
	}
	if len(s.live) != 0 {
		t.Fatalf("%d live procs after Close", len(s.live))
	}
	if n := settleGoroutines(start); n > start {
		t.Fatalf("goroutines: %d after Close, %d before the simulator", n, start)
	}
}

// TestCloseRunsDefers requires a closed process to unwind: its deferred
// calls run, in order, on its own goroutine while the closer waits.
func TestCloseRunsDefers(t *testing.T) {
	s := New()
	var log []string
	s.Spawn("worker", func(p *Proc) {
		defer func() { log = append(log, "outer") }()
		func() {
			defer func() { log = append(log, "inner") }()
			p.Sleep(time.Hour)
		}()
		log = append(log, "unreachable")
	})
	s.RunUntil(Time(time.Millisecond))
	s.Close()
	if len(log) != 2 || log[0] != "inner" || log[1] != "outer" {
		t.Fatalf("deferred calls = %v, want [inner outer]", log)
	}
}

// TestCloseTwice pins idempotence, that finished processes are dropped
// from the live list as they exit, and that a closed simulator refuses
// to run.
func TestCloseTwice(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.Spawn("short", func(p *Proc) { p.Sleep(1) })
	}
	never := s.NewCompletion()
	s.Spawn("waiter", func(p *Proc) { never.Wait(p) })
	s.Run()
	if len(s.live) != 1 {
		t.Fatalf("%d live procs after 100 finished and 1 parked, want 1", len(s.live))
	}
	s.Close()
	s.Close()
	if len(s.live) != 0 {
		t.Fatalf("%d live procs after Close", len(s.live))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run after Close did not panic")
		}
	}()
	s.Run()
}
