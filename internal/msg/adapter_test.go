package msg

import (
	"fmt"
	"reflect"
	"testing"

	"ioatsim/internal/check"
	"ioatsim/internal/cost"
	"ioatsim/internal/host"
	"ioatsim/internal/ioat"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
)

// schedLog records every EventScheduled hook as a (now, at) pair.
type schedLog struct{ pushes [][2]sim.Time }

func (l *schedLog) EventScheduled(now, at sim.Time) {
	l.pushes = append(l.pushes, [2]sim.Time{now, at})
}

func (l *schedLog) EventDispatched(sim.Time) {}

// exchangeOutcome is everything a message exchange exposes that a
// figure could observe.
type exchangeOutcome struct {
	pushes       [][2]sim.Time
	end          sim.Time
	reqs, resps  []Envelope
	sent, recvd  int64
	utilA, utilB float64
	violations   error
}

// runExchange plays rounds of client request then server response, on
// Procs (Conn.Send/Recv) or on Tasks (Async). A negative response body
// means the server sends no response that round.
func runExchange(t *testing.T, feat ioat.Features, reqBodies, respBodies []int, tasks bool) exchangeOutcome {
	t.Helper()
	p := cost.Default()
	log := &schedLog{}
	chk := check.New()
	s := sim.New(sim.WithProbe(log), sim.WithProbe(chk))
	a := host.NewNode(s, p, feat, "a", 1)
	b := host.NewNode(s, p, feat, "b", 1)
	ca, cb := tcp.Pair(a.Stack, b.Stack, 0, 0)
	client, server := Wrap(ca), Wrap(cb)
	srcA, dstA := a.Buf(64*cost.KB), a.Buf(64*cost.KB)
	srcB, dstB := b.Buf(64*cost.KB), b.Buf(64*cost.KB)
	var out exchangeOutcome
	if tasks {
		ac := NewAsync(client, s.NewTask("client"))
		as := NewAsync(server, s.NewTask("server"))
		var ci, si int
		var clientNext, serverNext func()
		clientGot := func(env Envelope) { out.resps = append(out.resps, env); clientNext() }
		clientSent := func() {
			if respBodies[ci-1] >= 0 {
				ac.Recv(dstA, clientGot)
				return
			}
			clientNext()
		}
		clientNext = func() {
			if ci < len(reqBodies) {
				ci++
				ac.Send(ci-1, reqBodies[ci-1], srcA, tcp.SendOptions{}, clientSent)
			}
		}
		serverGot := func(env Envelope) {
			out.reqs = append(out.reqs, env)
			if respBodies[si-1] >= 0 {
				as.Send(-si, respBodies[si-1], srcB, tcp.SendOptions{}, serverNext)
				return
			}
			serverNext()
		}
		serverNext = func() {
			if si < len(reqBodies) {
				si++
				as.Recv(dstB, serverGot)
			}
		}
		ac.Task().Start(clientNext)
		as.Task().Start(serverNext)
	} else {
		s.Spawn("client", func(pr *sim.Proc) {
			for i, body := range reqBodies {
				client.Send(pr, i, body, srcA, tcp.SendOptions{})
				if respBodies[i] >= 0 {
					out.resps = append(out.resps, client.Recv(pr, dstA))
				}
			}
		})
		s.Spawn("server", func(pr *sim.Proc) {
			for i := range reqBodies {
				out.reqs = append(out.reqs, server.Recv(pr, dstB))
				if respBodies[i] >= 0 {
					server.Send(pr, -(i + 1), respBodies[i], srcB, tcp.SendOptions{})
				}
			}
		})
	}
	out.end = s.Run()
	if len(out.reqs) != len(reqBodies) {
		t.Fatalf("tasks=%v: server got %d of %d requests", tasks, len(out.reqs), len(reqBodies))
	}
	out.pushes = log.pushes
	out.sent, out.recvd = a.Stack.BytesSent+b.Stack.BytesSent, a.Stack.BytesReceived+b.Stack.BytesReceived
	out.utilA, out.utilB = a.CPU.Utilization(), b.CPU.Utilization()
	chk.Finish()
	out.violations = chk.Err()
	return out
}

// TestBlockingMatchesAsync pins the blocking framed calls to Async: the
// same exchanges, run once on Procs and once on Tasks, must push the
// same events at the same times and deliver the same envelopes, with the
// same clock, byte counts, CPU utilisation and balanced ledgers.
func TestBlockingMatchesAsync(t *testing.T) {
	cases := []struct {
		name        string
		reqs, resps []int
	}{
		{"oneway", []int{0, 1, 0, 5000, 64 * cost.KB, 0, 300 * cost.KB}, []int{-1, -1, -1, -1, -1, -1, -1}},
		{"rpc", []int{0, 100, 0, 16 * cost.KB}, []int{16 * cost.KB, 0, 0, 1 * cost.MB}},
	}
	feats := []struct {
		name string
		f    ioat.Features
	}{{"none", ioat.None()}, {"dma", ioat.DMAOnly()}, {"full", ioat.Full()}}
	for _, f := range feats {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s", f.name, tc.name), func(t *testing.T) {
				blocking := runExchange(t, f.f, tc.reqs, tc.resps, false)
				async := runExchange(t, f.f, tc.reqs, tc.resps, true)
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
			})
		}
	}
}
