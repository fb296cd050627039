// Package msg provides framed request/response messaging over the
// byte-stream transport: each message is a fixed-size header plus a body
// of declared length. The simulator does not move real bytes, so message
// metadata travels on a zero-cost side channel while all timing and CPU
// cost comes from the underlying stream transfer of header+body bytes.
package msg

import (
	"ioatsim/internal/check"
	"ioatsim/internal/mem"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
)

// HeaderBytes is the on-wire size of a message header.
const HeaderBytes = 64

// Envelope pairs a message's metadata with its body length.
type Envelope struct {
	Meta any
	Body int
}

// Conn is one endpoint of a framed connection.
type Conn struct {
	T     *tcp.Conn
	inbox []Envelope
	// hdr is the staging buffer message headers are serialized from/into.
	hdr mem.Buffer
	chk *check.Checker

	// Blocking-call adapters, built on first use: each direction drives
	// its own Async and parks the caller on a Handoff.
	syncTx, syncRx     *Async
	txReturn, rxReturn *sim.Handoff
	gotEnv             func(Envelope)
	env                Envelope
}

// Wrap builds the framed wrapper for one endpoint. Both endpoints of a
// connection must be wrapped before messages flow.
func Wrap(c *tcp.Conn) *Conn {
	if mc, ok := c.UserData().(*Conn); ok {
		return mc
	}
	mc := &Conn{T: c, hdr: c.Stack().Mem.Space.Alloc(HeaderBytes, 0),
		chk: check.Enabled(c.Stack().S)}
	c.SetUserData(mc)
	return mc
}

// peer returns the wrapper of the remote endpoint, wrapping it on demand
// (the remote side may not have touched the connection yet).
func (m *Conn) peer() *Conn { return Wrap(m.T.Peer()) }

// Send transmits one message: meta describes it, body is the payload
// length, and src is the user buffer the payload is charged against
// (the header staging buffer is used when src is empty). It blocks p
// until the last payload byte has been handed to the NIC: Async.Send on
// the endpoint's blocking-call sender.
func (m *Conn) Send(p *sim.Proc, meta any, body int, src mem.Buffer, opts tcp.SendOptions) {
	if m.syncTx == nil {
		m.syncTx = NewAsync(m, m.T.Stack().S.NewTask(""))
		m.txReturn = sim.NewHandoff()
	}
	// The task's wakes are the caller's: trace them under its name.
	m.syncTx.Task().SetName(p.Name())
	m.syncTx.Send(meta, body, src, opts, m.txReturn.Done())
	m.txReturn.Wait(p)
}

// Recv blocks until one whole message (header + body) has been received
// and consumed into dst (the header staging buffer when dst is empty),
// then returns its envelope: Async.Recv on the endpoint's blocking-call
// receiver.
func (m *Conn) Recv(p *sim.Proc, dst mem.Buffer) Envelope {
	if m.syncRx == nil {
		m.syncRx = NewAsync(m, m.T.Stack().S.NewTask(""))
		m.rxReturn = sim.NewHandoff()
		m.gotEnv = func(env Envelope) {
			m.env = env
			m.rxReturn.Fire()
		}
	}
	// The task's wakes are the caller's: trace them under its name.
	m.syncRx.Task().SetName(p.Name())
	m.syncRx.Recv(dst, m.gotEnv)
	m.rxReturn.Wait(p)
	return m.env
}
