// Package tenant is the multi-tenant session service: many independent
// Jade programs multiplexed over one shared worker fleet (DESIGN.md
// §4.15). It is the layer that turns the live executor — one main
// program, one coordinator, one set of workers — into a backend.
//
// Shape: the service owns N worker daemons, each a worker host
// (live.Serve, a live.MultiServer) on the far side of one physical
// connection wrapped in a session mux (internal/transport/mux). The
// service never speaks on a connection's session 0, the one a plain run
// uses: it closes it, and the host goes on to serve the sessions opened.
// Each admitted session gets its own live.Exec — its own dependency
// engine, object directory, delta shadows, and trace ring — driving
// virtual connections to every daemon. Isolation is structural
// (per-session executors and worker stores, disjoint object-id ranges of
// 2³² per session) and enforced on the wire (frames route by session id;
// a fenced session's late frames are dropped).
//
// The SessionManager half follows the profiles/active registry shape of
// codenerd's ShardManager: declared tenant profiles on one side, live
// sessions on the other, with admission control between them — a
// fleet-wide concurrent-session cap, a bounded wait queue beyond it
// (OpenSession blocks as backpressure, then rejects), and per-tenant
// caps on sessions and worker slots.
package tenant

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/exec/live"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport/mux"
)

// ErrBusy is returned by OpenSession when the service is at its
// concurrent-session cap AND the wait queue is full: the backpressure
// signal callers turn into load shedding.
var ErrBusy = errors.New("tenant: service at capacity and wait queue full")

// ErrClosed is returned by OpenSession after Close.
var ErrClosed = errors.New("tenant: service closed")

// Profile declares one tenant's resource envelope.
type Profile struct {
	// Name identifies the tenant; sessions opened under it share quotas.
	Name string
	// SlotsPerWorker caps how many task slots the tenant's sessions may
	// hold concurrently on each worker daemon (0 = uncapped).
	SlotsPerWorker int
	// MaxSessions caps the tenant's concurrently-admitted sessions
	// (0 = no per-tenant cap; the fleet-wide cap still applies).
	MaxSessions int
}

// Options configure the service.
type Options struct {
	// Workers is the daemon fleet size (default 4).
	Workers int
	// Transport is "inproc" (default) or "tcp".
	Transport string
	// Listen is the tcp listen address (default "127.0.0.1:0").
	Listen string
	// AwaitExternal makes the tcp service wait for this many external
	// daemons (cmd/jadeworker) on top of the in-process ones.
	AwaitExternal int
	// WorkerSlots is each daemon's total concurrent task capacity,
	// shared across all resident sessions (default 2).
	WorkerSlots int
	// MaxSessions caps concurrently-admitted sessions fleet-wide
	// (0 = unlimited).
	MaxSessions int
	// MaxQueue bounds OpenSession callers blocked waiting for admission
	// (default 64). Beyond it, OpenSession fails fast with ErrBusy.
	MaxQueue int
	// Profiles declares the known tenants. A session under an undeclared
	// tenant gets an implicit profile with DefaultSlotsPerWorker.
	Profiles []Profile
	// DefaultSlotsPerWorker is the implicit per-worker slot quota for
	// undeclared tenants (0 = uncapped).
	DefaultSlotsPerWorker int
	// MaxLiveTasks is passed through to each session's executor.
	MaxLiveTasks int
	// Trace enables full event recording on every session.
	Trace bool
}

// daemon is the service's handle on one worker machine.
type daemon struct {
	name string
	mx   *mux.Mux
	dead atomic.Bool
}

// Service multiplexes sessions over the daemon fleet.
type Service struct {
	opts    Options
	bodies  *live.BodyTable
	daemons []*daemon
	loads   []atomic.Int64 // per daemon: fleet-wide outstanding tasks
	fleet   *live.Fleet

	mu        sync.Mutex
	cond      *sync.Cond
	profiles  map[string]Profile  // declared tenants (ShardManager's "profiles")
	active    map[uint64]*Session // admitted sessions ("active")
	rings     []*trace.Log        // closed untraced sessions' event rings, emptied for reuse
	perTenant map[string]int      // admitted sessions per tenant
	admitting int                 // admitted but not yet in active
	queued    int
	nextSess  uint64
	closed    bool
	counters  counters
	retired   map[string]tenantTotals // accumulated from closed sessions
}

type counters struct {
	opened, admitted, queued, rejected, closedSessions, peakActive int
}

type tenantTotals struct {
	sessions int
	tasksRun int
	frames   int
	bytes    int64
	crashes  int
	// latency is the per-task-label latency rollup each session's event
	// log is folded into at retirement.
	latency obs.Latencies
}

// NewService builds the daemon fleet and starts serving.
func NewService(opts Options) (*Service, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.WorkerSlots <= 0 {
		opts.WorkerSlots = 2
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 64
	}
	s := &Service{
		opts:      opts,
		bodies:    live.NewBodyTable(),
		profiles:  map[string]Profile{},
		active:    map[uint64]*Session{},
		perTenant: map[string]int{},
		nextSess:  1,
		retired:   map[string]tenantTotals{},
	}
	s.cond = sync.NewCond(&s.mu)
	for _, p := range opts.Profiles {
		s.profiles[p.Name] = p
	}
	host := func(i int) live.WorkerOptions {
		return live.WorkerOptions{Name: fmt.Sprintf("fleet-%d", i+1), Bodies: s.bodies, Slots: opts.WorkerSlots}
	}
	fleet, conns, err := live.StartFleet(opts.Transport, opts.Listen, opts.Workers, opts.AwaitExternal, host)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	// Sessions open on the daemons present now; one that dials later would
	// wait forever for a session, so it is turned away.
	fleet.AnswerLate(nil)
	s.fleet = fleet
	for i, c := range conns {
		mx := mux.New(c)
		mx.Plain().Close() // no plain run here: the host serves the sessions opened
		s.daemons = append(s.daemons, &daemon{name: fmt.Sprintf("fleet-%d", i+1), mx: mx})
	}
	s.loads = make([]atomic.Int64, len(s.daemons))
	return s, nil
}

// Addr returns the tcp listen address external daemons should dial
// ("" on inproc).
func (s *Service) Addr() string { return s.fleet.Addr() }

// profileFor resolves a tenant name to its declared profile or the
// implicit default.
func (s *Service) profileFor(name string) Profile {
	if p, ok := s.profiles[name]; ok {
		return p
	}
	return Profile{Name: name, SlotsPerWorker: s.opts.DefaultSlotsPerWorker}
}

// admissionBlockedLocked reports whether a new session for prof must
// wait. Requires s.mu.
func (s *Service) admissionBlockedLocked(prof Profile) bool {
	inFlight := len(s.active) + s.admitting
	if s.opts.MaxSessions > 0 && inFlight >= s.opts.MaxSessions {
		return true
	}
	if prof.MaxSessions > 0 && s.perTenant[prof.Name] >= prof.MaxSessions {
		return true
	}
	return false
}

// SessionConfig tunes one session beyond its tenant profile.
type SessionConfig struct {
	// Tenant names the quota bucket; see Options.Profiles.
	Tenant string
	// OnTaskDone is forwarded to the session's executor (chaos scripts).
	OnTaskDone func(done int)
	// Trace enables full event recording for this session.
	Trace bool
}

// OpenSession admits one session for a tenant, blocking (bounded by
// MaxQueue waiters) while the service is at capacity — the
// queue-with-backpressure admission policy.
func (s *Service) OpenSession(tenant string) (*Session, error) {
	return s.OpenSessionCfg(SessionConfig{Tenant: tenant})
}

// OpenSessionCfg is OpenSession with per-session knobs.
func (s *Service) OpenSessionCfg(cfg SessionConfig) (*Session, error) {
	prof := s.profileFor(cfg.Tenant)
	s.mu.Lock()
	s.counters.opened++
	queuedHere := false
	for !s.closed && s.admissionBlockedLocked(prof) {
		if !queuedHere {
			if s.queued >= s.opts.MaxQueue {
				s.counters.rejected++
				s.mu.Unlock()
				return nil, ErrBusy
			}
			s.queued++
			s.counters.queued++
			queuedHere = true
		}
		s.cond.Wait()
	}
	if queuedHere {
		s.queued--
	}
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	id := s.nextSess
	s.nextSess++
	s.perTenant[cfg.Tenant]++
	s.admitting++
	s.counters.admitted++
	traced := cfg.Trace || s.opts.Trace
	var ring *trace.Log
	if n := len(s.rings); n > 0 && !traced {
		ring, s.rings = s.rings[n-1], s.rings[:n-1]
	}
	s.mu.Unlock()

	sess, err := s.buildSession(id, cfg, prof, traced, ring)

	s.mu.Lock()
	s.admitting--
	if err != nil {
		s.perTenant[cfg.Tenant]--
		s.cond.Broadcast()
		s.mu.Unlock()
		return nil, err
	}
	s.active[id] = sess
	if n := len(s.active); n > s.counters.peakActive {
		s.counters.peakActive = n
	}
	s.mu.Unlock()
	return sess, nil
}

// buildSession opens virtual connections to every live daemon and
// stands up the session's own executor over them, recording into ring.
func (s *Service) buildSession(id uint64, cfg SessionConfig, prof Profile, traced bool, ring *trace.Log) (*Session, error) {
	sess := &Session{
		id: id, tenant: cfg.Tenant, svc: s, traced: traced,
		base: access.ObjectID(id) << 32,
	}
	var dmap []int
	for di, d := range s.daemons {
		if d.dead.Load() {
			continue
		}
		c, err := d.mx.Open(id, cfg.Tenant, prof.SlotsPerWorker)
		if err != nil {
			continue // daemon died while we were opening; skip it
		}
		sess.conns = append(sess.conns, c)
		dmap = append(dmap, di)
	}
	if len(sess.conns) == 0 {
		return nil, fmt.Errorf("tenant: session %d: no live worker daemon", id)
	}
	x, err := live.New(live.Options{
		Peers:         sess.conns,
		Bodies:        s.bodies,
		MaxLiveTasks:  s.opts.MaxLiveTasks,
		Trace:         traced,
		Ring:          ring,
		OnTaskDone:    cfg.OnTaskDone,
		Fleet:         &fleetView{loads: s.loads, dmap: dmap},
		FirstObjectID: sess.base,
	})
	if err != nil {
		for _, c := range sess.conns {
			c.Close()
		}
		return nil, err
	}
	sess.X = x
	return sess, nil
}

// retire is called by Session.Close: the registry slot frees (waking
// queued OpenSession callers) and the session's stats and events fold into
// the per-tenant aggregate. Its ring joins the free list as the slot
// frees, so rings never outnumber sessions admitted at once.
func (s *Service) retire(sess *Session) {
	cnt := sess.X.Counters()
	st := sess.X.Stats()
	log := sess.X.Log()
	s.mu.Lock()
	delete(s.active, sess.id)
	s.perTenant[sess.tenant]--
	s.counters.closedSessions++
	tot := s.retired[sess.tenant]
	tot.sessions++
	tot.tasksRun += cnt.TasksRun
	tot.frames += st.Net.Messages
	tot.bytes += st.Net.Bytes
	tot.crashes += st.Fault.CrashesDetected
	if tot.latency == nil {
		tot.latency = obs.Latencies{}
	}
	tot.latency.Fold(log.Each)
	if !sess.traced {
		s.rings = append(s.rings, log.Handoff())
	}
	s.retired[sess.tenant] = tot
	s.cond.Broadcast()
	s.mu.Unlock()
}

// SessionByID returns an active session (the observability endpoint's
// ?session= lookup).
func (s *Service) SessionByID(id uint64) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.active[id]
	return sess, ok
}

// KillWorker fences daemon d (0-based): its physical connection is torn
// down with late-frame drop, so every session with tasks or objects
// there independently detects the loss and runs its own recovery — the
// per-session analogue of PR 6's per-worker fencing.
func (s *Service) KillWorker(d int) error {
	if d < 0 || d >= len(s.daemons) {
		return fmt.Errorf("tenant: no daemon %d", d)
	}
	if s.daemons[d].dead.Swap(true) {
		return nil
	}
	s.daemons[d].mx.Fence()
	return nil
}

// Servers exposes the in-process daemons for ledger and isolation
// inspection (tests, reports).
func (s *Service) Servers() []*live.MultiServer { return s.fleet.Servers() }

// Close shuts the service down and returns once the in-process daemons
// have stopped. Active sessions' connections die with their daemons;
// callers should Close sessions first for a clean exit.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.fleet.Close()
	for _, d := range s.daemons {
		d.mx.Close()
	}
	s.fleet.Wait()
	return nil
}

// fleetView adapts the service's per-daemon load ledger to one
// session's machine indices (the session may have skipped dead daemons,
// so machine m maps through dmap).
type fleetView struct {
	loads []atomic.Int64
	dmap  []int // session machine index - 1 → daemon index
}

func (f *fleetView) idx(m int) int {
	if m >= 1 && m <= len(f.dmap) {
		return f.dmap[m-1]
	}
	return -1
}

func (f *fleetView) Charge(m int) {
	if d := f.idx(m); d >= 0 {
		f.loads[d].Add(1)
	}
}

func (f *fleetView) Uncharge(m int) {
	if d := f.idx(m); d >= 0 {
		f.loads[d].Add(-1)
	}
}

func (f *fleetView) Load(m int) int {
	if d := f.idx(m); d >= 0 {
		return int(f.loads[d].Load())
	}
	return 0
}
