// Package mux multiplexes several session-scoped virtual connections
// over one physical transport.Conn.
//
// This is the wire half of the multi-tenant service (DESIGN.md §4.15):
// one worker daemon holds caches and task slots for several independent
// Jade sessions at once, so the service opens one physical connection
// per daemon and runs every session's protocol over it. Each frame
// carries the session id in its header (wire.Frame.Sess); the mux stamps
// it on send and routes on it on receive without decoding the frame —
// the executor on each end still parses every frame exactly once.
//
// The mux is its conn's router (transport.Routable): a frame lands in its
// session's inbox in the goroutine that read it, with no goroutine of the
// mux's own between. Session 0 is open on both ends unannounced: it is
// what a peer without a mux speaks, and a service closes it.
//
// Isolation properties the tenant service relies on:
//
//   - A virtual conn only ever surfaces frames stamped with its own
//     session id: there is no code path by which one session's frames
//     reach another session's Recv.
//   - Closing or fencing a virtual conn removes its routing entry, so
//     late frames carrying a dead session's id are dropped on the floor
//     — per-session fencing with the same shape as the per-worker
//     fencing of transport.Fencer.
//   - Physical connection death fails every virtual conn (and Accept)
//     with the physical error, which is what lets each resident session
//     independently run its own crash recovery when a shared daemon dies.
//
// Ordering: frames of one session keep the physical connection's FIFO
// order, and a session's frames never overtake its TSessionOpen — the
// open frame travels the same pipe. Announced sessions wait for Accept
// in a queue without bound, so routing never blocks.
package mux

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// ErrFenced is returned by Send on a virtual conn that has been fenced.
var ErrFenced = errors.New("mux: session fenced")

// Session is one accepted virtual connection, as announced by the peer's
// TSessionOpen.
type Session struct {
	ID      uint64
	Tenant  string
	SlotCap int // per-worker slot cap for the tenant (0 = uncapped)
	Conn    transport.Conn
}

// Mux multiplexes virtual connections over one physical conn. The side
// that calls Open originates sessions (the service); the side that calls
// Accept hosts them (the worker daemon).
type Mux struct {
	phys  transport.Conn
	plain *sconn // session 0

	mu       sync.Mutex
	announce sync.Cond // Accept waits here for pending or err
	sessions map[uint64]*sconn
	pending  transport.FIFO[Session] // announced, not yet accepted
	err      error                   // terminal physical error, once set
}

// New wraps phys as its router. The caller must not use phys directly
// afterwards. phys must be transport.Routable (inproc and tcp conns are);
// on any other conn every session and Accept fail at once.
func New(phys transport.Conn) *Mux {
	m := &Mux{phys: phys, sessions: make(map[uint64]*sconn)}
	m.announce.L = &m.mu
	m.plain = newSconn(m, 0)
	m.sessions[0] = m.plain
	if r, ok := phys.(transport.Routable); ok {
		r.Route(m)
	} else {
		m.End(fmt.Errorf("mux: a %T conn cannot route frames", phys))
	}
	return m
}

// Plain returns session 0, the conn as a peer without a mux sees it.
func (m *Mux) Plain() transport.Conn { return m.plain }

// Open registers a new outbound session and announces it to the peer
// with TSessionOpen. The returned Conn carries only that session's
// frames. tenant and slotCap ride in the open frame so the daemon can
// bind the session to the right quota bucket.
func (m *Mux) Open(id uint64, tenant string, slotCap int) (transport.Conn, error) {
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	if _, dup := m.sessions[id]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("mux: session %d already open", id)
	}
	sc := newSconn(m, id)
	m.sessions[id] = sc
	m.mu.Unlock()

	open := &wire.Frame{Type: wire.TSessionOpen, Sess: id, Label: tenant, A: uint64(slotCap)}
	buf, err := wire.AppendFrame(transport.GetBuf(), open)
	if err != nil {
		m.drop(id)
		return nil, err
	}
	if err := transport.SendPooled(m.phys, buf); err != nil {
		m.drop(id)
		return nil, err
	}
	return sc, nil
}

// Accept blocks for the next session announced by the peer. Sessions
// announced before the conn died are still returned; then Accept returns
// the physical connection's terminal error.
func (m *Mux) Accept() (Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.pending.Len() == 0 && m.err == nil {
		m.announce.Wait()
	}
	if m.pending.Len() > 0 {
		return m.pending.Pop(), nil
	}
	return Session{}, m.err
}

// Close tears down the physical connection; every virtual conn and any
// blocked Accept fail.
func (m *Mux) Close() error {
	return m.phys.Close()
}

// Fence fences the physical connection when the substrate supports it
// (dropping in-flight frames), else closes it. The tenant service uses
// this to declare a whole daemon dead: every resident session sees its
// virtual conn die and runs its own recovery.
func (m *Mux) Fence() {
	if f, ok := m.phys.(transport.Fencer); ok {
		f.Fence()
		return
	}
	m.phys.Close()
}

// drop removes a session's routing entry. Late frames for it are
// discarded as they arrive.
func (m *Mux) drop(id uint64) *sconn {
	m.mu.Lock()
	sc := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	return sc
}

// Deliver implements transport.Router: it routes a data frame to its
// session's inbox and handles the session control frames.
func (m *Mux) Deliver(msg []byte) {
	typ, sess, err := wire.PeekSession(msg)
	if err != nil {
		transport.PutBuf(msg)
		m.End(fmt.Errorf("mux: unroutable frame: %w", err))
		return
	}
	switch typ {
	case wire.TSessionOpen:
		f, err := wire.DecodeOwned(msg)
		transport.PutBuf(msg) // the label is a copy
		if err != nil {
			m.End(err)
			return
		}
		s := Session{ID: sess, Tenant: f.Label, SlotCap: int(f.A)}
		m.mu.Lock()
		if _, dup := m.sessions[sess]; !dup && m.err == nil { // a duplicate open: the first one wins
			sc := newSconn(m, sess)
			m.sessions[sess] = sc
			s.Conn = sc
			m.pending.Push(s)
			m.announce.Signal()
		}
		m.mu.Unlock()
	case wire.TSessionClose:
		if sc := m.drop(sess); sc != nil {
			// Graceful: frames already routed stay readable, then
			// the session's Recv returns ErrClosed.
			sc.inbox.Close()
		}
		transport.PutBuf(msg)
	default:
		m.mu.Lock()
		sc := m.sessions[sess]
		m.mu.Unlock()
		if sc == nil || sc.inbox.Put(msg) != nil {
			transport.PutBuf(msg) // fenced, closed or never-opened session
		}
	}
}

// End implements transport.Router: it records the terminal error and
// fails every session with it, once each has read what was routed to it.
func (m *Mux) End(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	scs := make([]*sconn, 0, len(m.sessions))
	for id, sc := range m.sessions {
		scs = append(scs, sc)
		delete(m.sessions, id)
	}
	m.announce.Broadcast()
	m.mu.Unlock()
	for _, sc := range scs {
		sc.inbox.CloseWith(err, false)
	}
}
