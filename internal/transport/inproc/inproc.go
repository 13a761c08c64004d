// Package inproc is the in-process transport substrate: goroutine-to-
// goroutine message pipes with the same Conn contract as transport/tcp.
// It exists so the live executor can run N workers inside one process —
// for tests, for the L1 experiment's "in-process" leg, and as the
// degenerate platform the paper's shared-memory port corresponds to.
//
// Sends never block: each direction is a transport.Queue, so two
// endpoints can flood each other without deadlock (the same guarantee the
// tcp substrate gets from its writer goroutine).
package inproc

import "repro/internal/transport"

// conn is one endpoint of a pipe.
type conn struct {
	send *transport.Queue
	recv *transport.Queue
}

// Pipe returns the two endpoints of a fresh duplex message pipe.
func Pipe() (transport.Conn, transport.Conn) {
	a, b := transport.NewQueue(), transport.NewQueue()
	return &conn{send: a, recv: b}, &conn{send: b, recv: a}
}

func (c *conn) Send(msg []byte) error {
	return c.send.Put(append([]byte(nil), msg...)) // callers may reuse msg
}

// SendOwned implements transport.OwnedSender: the message slice is
// enqueued as-is (the receiver takes ownership via Recv), skipping the
// defensive copy Send makes.
func (c *conn) SendOwned(msg []byte) error { return c.send.Put(msg) }

func (c *conn) Recv() ([]byte, error) { return c.recv.Get() }

// Route implements transport.Routable: r takes the peer's sends in the
// peer's goroutine.
func (c *conn) Route(r transport.Router) { c.recv.Route(r) }

func (c *conn) Close() error {
	// Closing either endpoint tears down both directions, so a blocked
	// peer Recv returns ErrClosed rather than hanging.
	c.send.Close()
	c.recv.Close()
	return nil
}

// Fence implements transport.Fencer. The pipe IS the session on this
// substrate, so fencing closes both directions and additionally discards
// frames the peer already had in flight — they are late traffic from a
// declared-dead sender and must not be applied. This is the SIGKILL
// analogue the chaos harness uses for in-process workers.
func (c *conn) Fence() {
	c.send.Close()
	c.recv.CloseDiscard()
}

var (
	_ transport.Conn        = (*conn)(nil)
	_ transport.Fencer      = (*conn)(nil)
	_ transport.OwnedSender = (*conn)(nil)
	_ transport.Routable    = (*conn)(nil)
)
