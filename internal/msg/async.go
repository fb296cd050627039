package msg

// Async is framed messaging's only state machine: envelope enqueue,
// header-then-body transfer and the message ledgers live here, driven by
// a sim.Task through the transport's Sender/Receiver. The blocking
// Conn.Send/Recv are adapters that drive a per-direction Async and park
// the calling Proc until its done callback runs.
//
// An Async is created once per (endpoint, task) on the cold path and
// reused for every message; continuations are bound at construction so
// the steady state allocates nothing. Callers must likewise pass
// pre-bound done callbacks.

import (
	"ioatsim/internal/mem"
	"ioatsim/internal/sim"
	"ioatsim/internal/tcp"
)

// Async drives non-blocking framed messaging on one endpoint. At most
// one send and one receive may be in flight at a time (matching the
// transport's one-transfer-per-direction rule).
type Async struct {
	M  *Conn
	tx *tcp.Sender
	rx *tcp.Receiver

	sendBody int
	sendSrc  mem.Buffer
	sendOpts tcp.SendOptions
	sendDone func()

	recvDst  mem.Buffer
	recvEnv  Envelope
	recvDone func(Envelope)

	stepSendBody func()
	stepRecvBody func()
	stepRecvFin  func()
}

// NewAsync returns a reusable continuation-passing wrapper for m, driven
// by t. The task must be the one running the calling state machine: the
// wrapper suspends and resumes it across the underlying stream steps.
func NewAsync(m *Conn, t *sim.Task) *Async {
	a := &Async{M: m, tx: tcp.NewSender(m.T, t), rx: tcp.NewReceiver(m.T, t)}
	a.stepSendBody = a.sendBodyStep
	a.stepRecvBody = a.recvBodyStep
	a.stepRecvFin = a.recvFinish
	return a
}

// Send transmits one message: meta describes it, body is the payload
// length, and src is the user buffer the payload is charged against
// (the header staging buffer when src is empty). done fires when the
// last payload byte has been handed to the NIC.
func (a *Async) Send(meta any, body int, src mem.Buffer, opts tcp.SendOptions, done func()) {
	m := a.M
	if body < 0 {
		panic("msg: negative body")
	}
	m.peer().inbox = append(m.peer().inbox, Envelope{Meta: meta, Body: body})
	if m.chk != nil {
		// Every envelope queued must eventually be consumed by a Recv,
		// and framed bytes entering the stream must all come back out.
		m.chk.Ledger("msg:env").In(1)
		m.chk.Ledger("msg:bytes").In(int64(HeaderBytes + body))
	}
	a.sendBody, a.sendSrc, a.sendOpts, a.sendDone = body, src, opts, done
	// Header always goes through the normal copy path.
	a.tx.Send(m.hdr, HeaderBytes, a.stepSendBody)
}

// sendBodyStep runs once the header bytes have been handed off.
func (a *Async) sendBodyStep() {
	if a.sendBody > 0 {
		src := a.sendSrc
		if src.Size == 0 {
			src = a.M.hdr
		}
		done := a.sendDone
		a.sendDone = nil
		a.tx.SendOpts(src, a.sendBody, a.sendOpts, done)
		return
	}
	done := a.sendDone
	a.sendDone = nil
	done()
}

// Recv receives one whole message: done fires with its envelope once
// header and body have been consumed into dst (the header staging
// buffer when dst is empty).
func (a *Async) Recv(dst mem.Buffer, done func(Envelope)) {
	a.recvDst, a.recvDone = dst, done
	// Wait for the header bytes first; envelope registration at send time
	// always precedes their arrival.
	a.rx.Recv(a.M.hdr, HeaderBytes, a.stepRecvBody)
}

// recvBodyStep runs once the header bytes have been consumed: pop the
// envelope and receive the body.
func (a *Async) recvBodyStep() {
	m := a.M
	if len(m.inbox) == 0 {
		panic("msg: header bytes arrived without envelope")
	}
	env := m.inbox[0]
	m.inbox = m.inbox[1:]
	a.recvEnv = env
	if env.Body > 0 {
		dst := a.recvDst
		if dst.Size == 0 {
			dst = m.hdr
		}
		a.rx.Recv(dst, env.Body, a.stepRecvFin)
		return
	}
	a.recvFinish()
}

// recvFinish closes the message's ledger entries and delivers the
// envelope.
func (a *Async) recvFinish() {
	m := a.M
	env := a.recvEnv
	if m.chk != nil {
		m.chk.Assert(env.Body >= 0, "msg", "envelope with negative body %d", env.Body)
		m.chk.Ledger("msg:env").Out(1)
		m.chk.Ledger("msg:bytes").Out(int64(HeaderBytes + env.Body))
	}
	done := a.recvDone
	a.recvDone = nil
	done(env)
}

// Task returns the driving task.
func (a *Async) Task() *sim.Task { return a.tx.Task() }
