package tenant

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/access"
	"repro/internal/exec/live"
	"repro/internal/rt"
	"repro/internal/transport"
)

// State is a session's lifecycle position: open → running → drained →
// closed. Running brackets an executor Run; drained means the program
// finished (or the session began closing) and no further Run is
// admitted; closed means the registry slot has been released.
type State int

const (
	// StateOpen: admitted, no program running.
	StateOpen State = iota
	// StateRunning: an executor Run is in flight.
	StateRunning
	// StateDrained: finished or closing; new Runs are refused.
	StateDrained
	// StateClosed: resources released, registry slot freed.
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateRunning:
		return "running"
	case StateDrained:
		return "drained"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ErrSessionClosed is returned by BeginRun on a drained or closed
// session.
var ErrSessionClosed = errors.New("tenant: session drained or closed")

// Session is one admitted Jade program: its own executor (dependency
// engine, directory, shadows, trace) over virtual connections to the
// shared fleet, with all object ids confined to [Base, Base+2³²).
type Session struct {
	id     uint64
	tenant string
	svc    *Service
	base   access.ObjectID
	conns  []transport.Conn
	traced bool // records every event; its log is not a ring to recycle

	// X is the session's private executor. Callers register bodies and
	// drive programs through it exactly as with a dedicated live cluster.
	X *live.Exec

	mu        sync.Mutex
	state     State
	closeOnce sync.Once
}

// ID returns the session id (also the high 32 bits of its object ids).
func (s *Session) ID() uint64 { return s.id }

// Tenant returns the owning tenant's name.
func (s *Session) Tenant() string { return s.tenant }

// ObjectBase returns the first object id of the session's private range.
func (s *Session) ObjectBase() access.ObjectID { return s.base }

// State returns the lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// BeginRun moves open → running; callers that drive s.X.Run directly
// (rather than through Run) bracket it with BeginRun/EndRun so the
// lifecycle and the service's reports stay truthful.
func (s *Session) BeginRun() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state >= StateDrained {
		return ErrSessionClosed
	}
	s.state = StateRunning
	return nil
}

// EndRun moves running → open (ready for another program).
func (s *Session) EndRun() {
	s.mu.Lock()
	if s.state == StateRunning {
		s.state = StateOpen
	}
	s.mu.Unlock()
}

// Run executes one root task to completion on the session's executor.
func (s *Session) Run(root func(rt.TC)) error {
	if err := s.BeginRun(); err != nil {
		return err
	}
	defer s.EndRun()
	return s.X.Run(root)
}

// Close drains the session and frees its registry slot, waking queued
// OpenSession callers. Idempotent; safe with Runs in flight on other
// goroutines (their frames stop at the closed virtual connections and
// the executor surfaces the loss). An untraced session's event window
// ends here: its ring goes back to the service, leaving X.Log() empty.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.state = StateDrained
		s.mu.Unlock()
		for _, c := range s.conns {
			c.Close()
		}
		s.svc.retire(s)
		s.mu.Lock()
		s.state = StateClosed
		s.mu.Unlock()
	})
	return nil
}
