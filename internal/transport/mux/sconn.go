package mux

import (
	"sync/atomic"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// sconn is a virtual connection: the transport.Conn one session sees.
// Sends stamp the session id into the encoded frame and forward to the
// physical conn; Recv reads the session's inbox. Close and Fence both
// tell the peer to drop the session's routing entry (TSessionClose);
// Fence additionally discards queued inbound frames, mirroring the
// fencing semantics of the physical substrates.
type sconn struct {
	m     *Mux
	id    uint64
	inbox *transport.Queue // puts never block; Fence discards what is queued
	state atomic.Int32     // open, closed or fenced; it only moves forward
}

// A virtual conn's states.
const (
	stateOpen int32 = iota
	stateClosed
	stateFenced
)

func newSconn(m *Mux, id uint64) *sconn {
	return &sconn{m: m, id: id, inbox: transport.NewQueue()}
}

func (c *sconn) sendErr() error {
	switch c.state.Load() {
	case stateFenced:
		return ErrFenced
	case stateClosed:
		return transport.ErrClosed
	}
	return nil
}

func (c *sconn) Send(msg []byte) error {
	if err := c.sendErr(); err != nil {
		return err
	}
	// Exact size, as inproc's: a pooled copy the receiver keeps costs 512 bytes.
	buf := append([]byte(nil), msg...)
	if err := wire.SetSession(buf, c.id); err != nil {
		transport.PutBuf(buf)
		return err
	}
	return transport.SendPooled(c.m.phys, buf)
}

// SendOwned stamps the session id in place — zero extra copies on the
// pooled-frame hot path.
func (c *sconn) SendOwned(msg []byte) error {
	if err := c.sendErr(); err != nil {
		transport.PutBuf(msg)
		return err
	}
	if err := wire.SetSession(msg, c.id); err != nil {
		transport.PutBuf(msg)
		return err
	}
	return transport.SendPooled(c.m.phys, msg)
}

func (c *sconn) Recv() ([]byte, error) {
	return c.inbox.Get()
}

// Close gracefully ends the session: the peer drops its routing entry,
// frames already queued locally stay readable.
func (c *sconn) Close() error {
	if !c.state.CompareAndSwap(stateOpen, stateClosed) {
		return nil
	}
	c.m.drop(c.id)
	c.announceClose()
	c.inbox.Close()
	return nil
}

// Fence implements transport.Fencer for one session: late inbound frames
// are discarded, future routes are dropped (the routing entry is gone),
// and the peer is told — best-effort — to forget the session.
func (c *sconn) Fence() {
	if c.state.Swap(stateFenced) == stateFenced {
		return
	}
	c.m.drop(c.id)
	c.announceClose()
	c.inbox.CloseDiscard()
}

// announceClose sends TSessionClose to the peer, best-effort: on a dead
// physical conn there is nobody left to tell.
func (c *sconn) announceClose() {
	buf, err := wire.AppendFrame(transport.GetBuf(), &wire.Frame{Type: wire.TSessionClose, Sess: c.id})
	if err != nil {
		return
	}
	_ = transport.SendPooled(c.m.phys, buf)
}

var (
	_ transport.Conn        = (*sconn)(nil)
	_ transport.Fencer      = (*sconn)(nil)
	_ transport.OwnedSender = (*sconn)(nil)
)
