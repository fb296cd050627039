package tcp

import (
	"fmt"
	"reflect"
	"testing"

	"ioatsim/internal/check"
	"ioatsim/internal/cost"
	"ioatsim/internal/fault"
	"ioatsim/internal/ioat"
	"ioatsim/internal/sim"
)

// schedLog records every EventScheduled hook as a (now, at) pair: the
// complete push sequence of a run, in order.
type schedLog struct{ pushes [][2]sim.Time }

func (l *schedLog) EventScheduled(now, at sim.Time) {
	l.pushes = append(l.pushes, [2]sim.Time{now, at})
}

func (l *schedLog) EventDispatched(sim.Time) {}

// transferOutcome is everything a transfer run exposes that a figure
// could observe.
type transferOutcome struct {
	pushes       [][2]sim.Time
	end          sim.Time
	sent, recvd  int64
	retransmits  int64
	utilA, utilB float64
	violations   error
}

// transferCase is one stream a->b: the sizes are sent and received in
// order, each as one Send and one Recv call.
type transferCase struct {
	name    string
	feat    ioat.Features
	sizes   []int
	opts    SendOptions
	plan    *fault.Plan // nil: lossless fabric
	checked bool
}

// runTransfer plays tc once, on Procs (blocking Send/Recv) or on Tasks
// (Sender/Receiver).
func runTransfer(t *testing.T, tc transferCase, tasks bool) transferOutcome {
	t.Helper()
	p := cost.Default()
	log := &schedLog{}
	var s *sim.Simulator
	var sa, sb *Stack
	var chk *check.Checker
	if tc.plan != nil {
		fn := newFaultNet(tc.feat, p, *tc.plan, sim.WithProbe(log))
		s, sa, sb, chk = fn.s, fn.sa, fn.sb, fn.chk
	} else {
		opts := []sim.Option{sim.WithProbe(log)}
		if tc.checked {
			chk = check.New()
			opts = append(opts, sim.WithProbe(chk))
		}
		s = sim.New(opts...)
		sa = newNode(s, p, tc.feat, "a", 1).st
		sb = newNode(s, p, tc.feat, "b", 1).st
	}
	ca, cb := Pair(sa, sb, 0, 0)
	src := sa.Mem.Space.Alloc(64*cost.KB, 0)
	dst := sb.Mem.Space.Alloc(64*cost.KB, 0)
	received := 0
	if tasks {
		tx := NewSender(ca, s.NewTask("tx"))
		rx := NewReceiver(cb, s.NewTask("rx"))
		var ti, ri int
		var txNext, rxNext func()
		txNext = func() {
			if ti < len(tc.sizes) {
				ti++
				tx.SendOpts(src, tc.sizes[ti-1], tc.opts, txNext)
			}
		}
		rxNext = func() {
			if ri < len(tc.sizes) {
				ri++
				rx.Recv(dst, tc.sizes[ri-1], rxNext)
				return
			}
			received = ri
		}
		tx.Task().Start(txNext)
		rx.Task().Start(rxNext)
	} else {
		s.Spawn("tx", func(pr *sim.Proc) {
			for _, n := range tc.sizes {
				ca.SendOpts(pr, src, n, tc.opts)
			}
		})
		s.Spawn("rx", func(pr *sim.Proc) {
			for _, n := range tc.sizes {
				cb.Recv(pr, dst, n)
			}
			received = len(tc.sizes)
		})
	}
	end := s.Run()
	if received != len(tc.sizes) {
		t.Fatalf("%s (tasks=%v): %d of %d receives completed", tc.name, tasks, received, len(tc.sizes))
	}
	out := transferOutcome{
		pushes: log.pushes, end: end,
		sent: sa.BytesSent, recvd: sb.BytesReceived, retransmits: sa.Retransmits,
		utilA: sa.CPU.Utilization(), utilB: sb.CPU.Utilization(),
	}
	if chk != nil {
		chk.Finish()
		out.violations = chk.Err()
	}
	return out
}

// TestBlockingMatchesAsync pins the blocking calls to the continuation
// state machines: the same transfers, run once on Procs through
// Conn.SendOpts/Recv and once on Tasks through Sender/Receiver, must
// push the same events at the same times and end with the same clock,
// byte counts and CPU utilisation.
func TestBlockingMatchesAsync(t *testing.T) {
	feats := []struct {
		name string
		f    ioat.Features
	}{{"none", ioat.None()}, {"dma", ioat.DMAOnly()}, {"full", ioat.Full()}}
	seqs := [][]int{
		{1},
		{100, 0, 5000},
		{64 * cost.KB},
		{1 * cost.MB},
		{3, 64*cost.KB + 1, 0, 200 * cost.KB, 1460, 9000, cost.MB / 3},
	}
	var cases []transferCase
	for _, f := range feats {
		for _, sz := range seqs {
			cases = append(cases, transferCase{
				name: fmt.Sprintf("%s%v", f.name, sz), feat: f.f, sizes: sz})
		}
	}
	cases = append(cases,
		transferCase{name: "zerocopy", feat: ioat.Linux(),
			sizes: []int{64*cost.KB + 7, 17}, opts: SendOptions{ZeroCopy: true}},
		transferCase{name: "lossy", feat: ioat.Full(), sizes: []int{512 * cost.KB, 9000, cost.MB},
			plan: &fault.Plan{DropMask: 1<<2 | 1<<9, MaskBits: 16}},
		transferCase{name: "checked", feat: ioat.Linux(),
			sizes: []int{5, 64 * cost.KB, 0, 300 * cost.KB}, checked: true},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blocking := runTransfer(t, tc, false)
			async := runTransfer(t, tc, true)
			if len(blocking.pushes) == 0 {
				t.Fatal("no events recorded")
			}
			if !reflect.DeepEqual(blocking.pushes, async.pushes) {
				i := 0
				for i < len(blocking.pushes) && i < len(async.pushes) && blocking.pushes[i] == async.pushes[i] {
					i++
				}
				t.Fatalf("push sequences diverge at push %d of %d/%d", i, len(blocking.pushes), len(async.pushes))
			}
			blocking.pushes, async.pushes = nil, nil
			if !reflect.DeepEqual(blocking, async) {
				t.Fatalf("outcomes differ:\nblocking %+v\nasync    %+v", blocking, async)
			}
			if blocking.violations != nil {
				t.Fatal(blocking.violations)
			}
			if tc.plan != nil && blocking.retransmits == 0 {
				t.Fatal("the lossy plan dropped nothing")
			}
		})
	}
}

// TestConcurrentTransferPanics pins the one-transfer-per-direction rule:
// a second Send or Recv on an endpoint while the first is parked panics,
// whether both come through the blocking calls (which share one adapter
// per direction) or through two Senders or Receivers (which share the
// connection's one waiter slot).
func TestConcurrentTransferPanics(t *testing.T) {
	const (
		sendPanic = "tcp: concurrent Send on one connection"
		recvPanic = "tcp: concurrent Recv on one connection"
	)
	for _, tc := range []struct {
		name        string
		send, tasks bool
		want        string
	}{
		{"send/procs", true, false, sendPanic},
		{"send/tasks", true, true, sendPanic},
		{"recv/procs", false, false, recvPanic},
		{"recv/tasks", false, true, recvPanic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, a, b := twoNodes(ioat.None(), cost.Default())
			defer s.Close()
			ca, cb := Pair(a.st, b.st, 0, 0)
			src, dst := a.buf(64*cost.KB), b.buf(64*cost.KB)
			// Nothing runs on the other endpoint, so a send of several
			// windows stalls and a receive waits forever.
			const n = 4 * cost.MB
			var got any
			for i := 0; i < 2; i++ {
				if tc.tasks {
					task := s.NewTask("t")
					if tc.send {
						tx := NewSender(ca, task)
						task.Start(func() { tx.Send(src, n, func() {}) })
					} else {
						rx := NewReceiver(cb, task)
						task.Start(func() { rx.Recv(dst, n, func() {}) })
					}
					continue
				}
				s.Spawn("p", func(pr *sim.Proc) {
					defer func() {
						// Record the transport's panic; let anything else,
						// such as Close unwinding a parked Proc, through.
						r := recover()
						if msg, ok := r.(string); ok {
							got = msg
						} else if r != nil {
							panic(r)
						}
					}()
					if tc.send {
						ca.Send(pr, src, n)
					} else {
						cb.Recv(pr, dst, n)
					}
				})
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						got = r
					}
				}()
				s.Run()
			}()
			if got != tc.want {
				t.Fatalf("got panic %v, want %q", got, tc.want)
			}
		})
	}
}
