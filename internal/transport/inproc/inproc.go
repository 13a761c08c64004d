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

import (
	"fmt"
	"sync"

	"repro/internal/transport"
)

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
)

// Name registry: Listen/Dial let code that only knows an address string
// (e.g. cmd/jadeworker pointed at an inproc coordinator in tests) rendezvous
// inside one process, mirroring the tcp Listen/Dial shape.

var (
	regMu    sync.Mutex
	registry = map[string]*listener{}
)

type listener struct {
	name    string
	backlog chan transport.Conn
	done    chan struct{}
	once    sync.Once
}

// Listen registers name and returns a Listener accepting inproc dials.
func Listen(name string) (transport.Listener, error) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[name]; ok {
		return nil, fmt.Errorf("inproc: name %q already in use", name)
	}
	l := &listener{name: name, backlog: make(chan transport.Conn, 16), done: make(chan struct{})}
	registry[name] = l
	return l, nil
}

// Dial connects to a registered listener by name.
func Dial(name string) (transport.Conn, error) {
	regMu.Lock()
	l, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("inproc: no listener named %q", name)
	}
	local, remote := Pipe()
	select {
	case l.backlog <- remote:
		return local, nil
	case <-l.done:
		return nil, transport.ErrClosed
	}
}

func (l *listener) Accept() (transport.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, transport.ErrClosed
	}
}

func (l *listener) Addr() string { return l.name }

func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		regMu.Lock()
		delete(registry, l.name)
		regMu.Unlock()
	})
	return nil
}
