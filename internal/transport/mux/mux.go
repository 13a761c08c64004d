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
// Isolation properties the tenant service relies on:
//
//   - A virtual conn only ever surfaces frames stamped with its own
//     session id: there is no code path by which one session's frames
//     reach another session's Recv.
//   - Closing or fencing a virtual conn removes its routing entry, so
//     late frames carrying a dead session's id are dropped on the floor
//     — per-session fencing with the same shape as the per-worker
//     fencing of transport.Fencer.
//   - Physical connection death fails every virtual conn (and Accept),
//     which is what lets each resident session independently run its
//     own crash recovery when a shared daemon dies.
//
// Ordering: frames of one session keep the physical connection's FIFO
// order, and a session's frames never overtake its TSessionOpen — the
// open frame travels the same pipe.
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
// Accept hosts them (the worker daemon). One goroutine owns the physical
// Recv, honouring the single-reader contract.
type Mux struct {
	phys transport.Conn

	mu       sync.Mutex
	sessions map[uint64]*sconn
	err      error // terminal physical error, once set

	acceptCh chan Session
	done     chan struct{}
}

// New wraps phys and starts the demux loop. The caller must not use phys
// directly afterwards.
func New(phys transport.Conn) *Mux {
	m := &Mux{
		phys:     phys,
		sessions: make(map[uint64]*sconn),
		acceptCh: make(chan Session, 64),
		done:     make(chan struct{}),
	}
	go m.demux()
	return m
}

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

// Accept blocks for the next session announced by the peer. It returns
// the physical connection's terminal error once the conn dies.
func (m *Mux) Accept() (Session, error) {
	select {
	case s, ok := <-m.acceptCh:
		if !ok {
			return Session{}, m.failErr()
		}
		return s, nil
	case <-m.done:
		// Drain sessions that were accepted before the conn died.
		select {
		case s, ok := <-m.acceptCh:
			if ok {
				return s, nil
			}
		default:
		}
		return Session{}, m.failErr()
	}
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

func (m *Mux) failErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	return transport.ErrClosed
}

// drop removes a session's routing entry. Late frames for it are
// discarded by the demux loop.
func (m *Mux) drop(id uint64) *sconn {
	m.mu.Lock()
	sc := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	return sc
}

// demux is the sole reader of the physical conn: it routes data frames
// to their session's inbox and handles the session control frames.
func (m *Mux) demux() {
	for {
		msg, err := m.phys.Recv()
		if err != nil {
			m.fail(err)
			return
		}
		typ, sess, perr := wire.PeekSession(msg)
		if perr != nil {
			m.fail(fmt.Errorf("mux: unroutable frame: %w", perr))
			return
		}
		switch typ {
		case wire.TSessionOpen:
			f, derr := wire.DecodeOwned(msg)
			if derr != nil {
				m.fail(derr)
				return
			}
			m.mu.Lock()
			if _, dup := m.sessions[sess]; dup {
				m.mu.Unlock()
				transport.PutBuf(msg)
				continue // duplicate open: first one wins
			}
			sc := newSconn(m, sess)
			m.sessions[sess] = sc
			m.mu.Unlock()
			s := Session{ID: sess, Tenant: f.Label, SlotCap: int(f.A), Conn: sc}
			transport.PutBuf(msg)
			select {
			case m.acceptCh <- s:
			case <-m.done:
				return
			}
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
			if sc == nil {
				transport.PutBuf(msg) // fenced or never-opened session
				continue
			}
			if sc.inbox.Put(msg) != nil {
				transport.PutBuf(msg) // closed session: recycle the frame
			}
		}
	}
}

// fail records the terminal error and tears every session down. Frames
// already routed to a session's inbox remain readable (they were
// delivered before the failure), then Recv surfaces the error.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	scs := make([]*sconn, 0, len(m.sessions))
	for id, sc := range m.sessions {
		scs = append(scs, sc)
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	close(m.done)
	for _, sc := range scs {
		sc.inbox.Close()
	}
}
