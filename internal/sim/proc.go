package sim

import (
	"errors"
	"fmt"
)

// Proc is a simulation process: sequential code running in its own
// goroutine, scheduled exclusively by the event loop. Blocking operations
// (Sleep, channel receive, resource acquire) park the goroutine and hand
// control back to the event loop; a later event resumes it.
//
// All Proc methods must be called from the process's own goroutine.
type Proc struct {
	sim    *Simulator
	name   string
	resume chan struct{}
	done   bool
	dead   bool // set when the process goroutine exited
	slot   int  // index in sim.live while the goroutine is alive
}

// errClosed is the panic value a process parked at Close unwinds with,
// and the one a closed simulator refuses to run with.
var errClosed = errors.New("sim: simulator closed")

// errCloseInProc is the panic value of a Close called by a process.
var errCloseInProc = errors.New("sim: Close called from inside a process")

// Name returns the label the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Simulator { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Spawn starts fn as a simulation process at the current virtual time.
// fn begins executing when the event loop reaches the spawn event.
func (s *Simulator) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAfter(0, name, fn)
}

// SpawnAfter starts fn as a simulation process after delay d.
func (s *Simulator) SpawnAfter(d Duration, name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, resume: make(chan struct{}), slot: len(s.live)}
	s.live = append(s.live, p)
	//ioatlint:allow simdeterminism — the engine's own process machinery: exactly one goroutine runs at a time, hand-off is via resume/parked, so scheduling stays deterministic
	go func() {
		defer func() {
			if r := recover(); r != nil && r != errClosed {
				panic(r) // a genuine failure: crash with the event loop still blocked
			}
			s.exitProc(p)
		}()
		<-p.resume // wait to be scheduled for the first time
		if !s.closing {
			fn(p)
		}
	}()
	s.ScheduleArg(d, resumeProc, p)
	return p
}

// exitProc retires p as its goroutine exits — fn returned, or Close
// unwound it — and returns control to the event loop.
func (s *Simulator) exitProc(p *Proc) {
	p.dead = true
	last := s.live[len(s.live)-1]
	s.live[p.slot], last.slot = last, p.slot
	s.live[len(s.live)-1] = nil
	s.live = s.live[:len(s.live)-1]
	s.parked <- struct{}{}
}

// Close ends every process whose goroutine is still alive: parked
// processes, and spawned ones that never ran. Each is resumed with the
// simulator marked closing; a parked one unwinds out of park (its
// deferred calls run), one that never started skips its function. A
// process parked forever otherwise pins its goroutine, and through it
// the whole simulated system, for the life of the program. Close is
// called from outside the event loop once a run is over; it does not
// count as a process switch, is idempotent, and leaves the simulator
// unable to run again.
func (s *Simulator) Close() {
	if s.current != nil {
		panic(errCloseInProc)
	}
	s.closing = true
	for len(s.live) > 0 {
		p := s.live[len(s.live)-1]
		p.resume <- struct{}{}
		<-s.parked
	}
}

// resumeProc is the pre-bound callback behind every process wake-up
// (Sleep, Wake, Completion, Spawn): scheduling it with the process as
// the event argument costs no allocation, where a per-event closure
// over p would.
//
//ioat:hotpath
func resumeProc(a any) {
	p := a.(*Proc)
	p.sim.runProc(p)
}

// runProc transfers control to p until it parks or finishes. Called only
// from event callbacks (the event-loop goroutine).
func (s *Simulator) runProc(p *Proc) {
	if p.dead {
		panic(fmt.Sprintf("sim: resuming dead process %q", p.name))
	}
	if s.procProbe != nil {
		s.procProbe.ProcRun(p.name, s.now)
	}
	s.procSwitches++
	prev := s.current
	s.current = p
	p.resume <- struct{}{}
	<-s.parked
	s.current = prev
}

// park suspends the calling process until the event loop resumes it.
// Resumed by Close, it unwinds with errClosed, which the spawn wrapper
// recovers. A panic, not runtime.Goexit: the inliner prices a panic at
// almost nothing but any call at more than park's whole budget, and park
// inlines into every blocking primitive.
func (p *Proc) park() {
	p.sim.parked <- struct{}{}
	<-p.resume
	if p.sim.closing {
		panic(errClosed)
	}
}

// Park suspends the calling process until another component wakes it with
// Simulator.Wake. The caller must have registered itself somewhere a
// future event can find it, or it sleeps forever.
func (p *Proc) Park() { p.park() }

// Wake schedules a parked process to resume at the current time.
//
//ioat:hotpath
func (s *Simulator) Wake(p *Proc) {
	s.ScheduleArg(0, resumeProc, p)
}

// Sleep suspends the process for virtual duration d. The wake-up event
// is pre-bound to the process, so sleeping allocates nothing.
//
//ioat:hotpath
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.sim.ScheduleArg(d, resumeProc, p)
	p.park()
}

// Yield reschedules the process at the current time behind already-pending
// same-time events.
func (p *Proc) Yield() { p.Sleep(0) }

// completion is a one-shot event a process can wait on. It is safe to
// Complete before or after Wait begins; Wait returns immediately if the
// completion already fired.
type completion struct {
	sim    *Simulator
	done   bool
	waiter any // *Proc or *Task
}

// NewCompletion returns a one-shot completion bound to the simulator.
func (s *Simulator) NewCompletion() *Completion {
	return &Completion{c: completion{sim: s}}
}

// Completion is a one-shot synchronization point: one waiter, one signal.
type Completion struct{ c completion }

// Done reports whether Complete has been called.
func (c *Completion) Done() bool { return c.c.done }

// Complete fires the completion, waking the waiter if one is parked.
// Completing twice panics: that always indicates a protocol bug.
//
//ioat:hotpath
func (c *Completion) Complete() {
	if c.c.done {
		panic("sim: completion fired twice")
	}
	c.c.done = true
	if w := c.c.waiter; w != nil {
		c.c.waiter = nil
		c.c.sim.WakeAny(w)
	}
}

// Reset rearms a fired completion for reuse, so pools can recycle
// completions instead of allocating one per transfer. It panics if the
// completion has not fired or still has a parked waiter — recycling an
// in-flight completion would strand its waiter forever.
//
//ioat:hotpath
func (c *Completion) Reset() {
	if !c.c.done {
		panic("sim: reset of an unfired completion")
	}
	if c.c.waiter != nil {
		panic("sim: reset of a completion with a parked waiter")
	}
	c.c.done = false
}

// Wait parks p until Complete is called. Only one waiter may wait.
func (c *Completion) Wait(p *Proc) {
	if c.c.done {
		return
	}
	if c.c.waiter != nil {
		panic("sim: second waiter on completion")
	}
	c.c.waiter = p
	p.park()
}

// WaitTask is Wait for an event-driven continuation: if the completion
// has already fired it returns false and the caller continues inline
// (mirroring Wait's immediate return); otherwise it installs cont as t's
// continuation, registers t as the waiter, and returns true — the caller
// must suspend, and Complete will wake t.
//
//ioat:hotpath
func (c *Completion) WaitTask(t *Task, cont func()) bool {
	if c.c.done {
		return false
	}
	if c.c.waiter != nil {
		panic("sim: second waiter on completion")
	}
	t.OnWake(cont)
	c.c.waiter = t
	return true
}

// Handoff parks a Proc on an operation that a Task-style state machine
// drives, and resumes it when the operation's done callback runs. It is
// how a blocking call becomes a thin adapter over a continuation: the
// adapter starts the operation with Done() as its callback, then calls
// Wait.
//
// Unlike a Completion, a Handoff pushes no event of its own. Fired on
// the event loop while a Proc waits, it runs that Proc inside the
// firing event, so the parked Proc resumes at exactly the point, and in
// exactly the order, that a Proc woken by the operation's last event
// would. Fired before Wait (the operation finished synchronously), it
// makes Wait return at once.
type Handoff struct {
	waiter *Proc
	fired  bool
	done   func()
}

// NewHandoff returns an idle handoff with its callback pre-bound, so
// each operation it adapts allocates nothing.
func NewHandoff() *Handoff {
	h := &Handoff{}
	h.done = h.Fire
	return h
}

// Done returns Fire as a callback to hand to the operation.
func (h *Handoff) Done() func() { return h.done }

// Fire resumes the waiting Proc, or records that the operation finished
// before anyone waited.
func (h *Handoff) Fire() {
	p := h.waiter
	if p == nil {
		h.fired = true
		return
	}
	h.waiter = nil
	p.sim.runProc(p)
}

// Wait parks p until the operation's done callback runs, or returns at
// once if it already has.
func (h *Handoff) Wait(p *Proc) {
	if h.fired {
		h.fired = false
		return
	}
	h.waiter = p
	p.park()
}
