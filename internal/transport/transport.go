// Package transport defines the pluggable message substrate beneath the
// live executor (internal/exec/live).
//
// The Jade paper's claim is that one program runs unmodified on shared
// memory, on the iPSC/860, and on an Ethernet network of workstations;
// what makes that portable is a runtime factored from the communication
// substrate behind a narrow interface.  This package is that seam for the
// repo: the live executor speaks only Conn, and the two concrete
// substrates — inproc (goroutine channels) and tcp (length-prefixed
// frames over one socket per connection, with heartbeats) — plug in
// underneath without the executor changing.
//
// The contract is deliberately message-oriented rather than stream
// oriented: Send/Recv move whole messages (the wire codec in
// transport/wire produces one frame per message), preserving the
// message-at-a-time model of the simulated network in internal/netmodel.
// A substrate repairs nothing: a connection that breaks stays broken, and
// the layer above treats it as a dead member.
package transport

import "errors"

// ErrClosed is returned by Send/Recv/Accept after the endpoint has been
// closed locally or the peer has closed it in order.
var ErrClosed = errors.New("transport: connection closed")

// Conn is a reliable, ordered, duplex message pipe for as long as it
// lives.
//
//   - Send enqueues one message.  It may be called from many goroutines
//     concurrently; messages from a single sender are delivered in order.
//     Send does not block on the peer (substrates buffer internally), so
//     two endpoints may Send to each other without deadlock.
//   - Recv returns the next message.  Only one goroutine may call Recv at
//     a time.  The returned slice is owned by the caller.
//   - Every message is delivered once, in order, until the connection
//     ends.  It ends by a Close on either side (Recv then reports
//     ErrClosed) or by a failure such as a lost socket or a silent peer
//     (Recv reports that error).  Either way it is over: nothing
//     reconnects, and messages in flight when it failed may be lost.
type Conn interface {
	// Send enqueues msg for delivery.  The implementation must not
	// retain msg after returning.
	Send(msg []byte) error
	// Recv blocks for the next message or a terminal error.
	Recv() ([]byte, error)
	// Close tears the connection down.  Pending Recv calls return
	// ErrClosed.
	Close() error
}

// Stats counts a Conn's own traffic.  Substrates that implement the
// optional Statser expose it; the live executor folds it into
// Runtime.Report().Fault alongside its own frame accounting.
type Stats struct {
	Heartbeats uint64 // idle-connection heartbeat frames sent
}

// Statser is the optional stats interface, satisfied by tcp conns.
type Statser interface{ Stats() Stats }

// Fencer is the optional fencing interface. Fence tears the connection
// down AND bars any late traffic on it from ever being delivered: frames
// in flight, or received but not yet taken by Recv, are dropped, not
// applied. The coordinator fences a worker it has declared dead so that
// a worker that was merely slow cannot corrupt the recovered run — the
// falsely-suspected worker must dial again, and so rejoin as a brand new
// member. On inproc the pipe is the connection, so Fence closes it and
// discards what is queued.
type Fencer interface{ Fence() }

// Router takes a connection's messages in the goroutine that delivers
// them — the tcp reader, or an inproc sender — under the connection's
// delivery lock, so it must neither block nor call back into the
// connection. Deliver takes ownership of msg; End reports the terminal
// error, once, after the last delivery.
type Router interface {
	Deliver(msg []byte)
	End(err error)
}

// Routable is the optional delivery hook of inproc and tcp conns: Route
// hands r what Recv would have returned, queued messages first, and
// nothing after a Fence. Recv must not be called afterwards.
type Routable interface{ Route(r Router) }
