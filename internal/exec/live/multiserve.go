package live

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/access"
	"repro/internal/transport"
	"repro/internal/transport/mux"
)

// MultiServer is the worker host (DESIGN.md §4.15): a plain run on its
// connection's session 0, then every session a service opens on it, each
// with its own worker instance — own object store, own sync bases, own
// RPC routing — so cross-tenant isolation is structural: there is no
// shared map a foreign object id could leak through. What IS shared is
// the machine: one slot pool gates task execution across every resident
// session, with per-tenant caps enforced at acquire time, and one body
// table serves closure dispatch for all in-process sessions.
//
// Quota enforcement lives here, on the worker, rather than as a blocking
// admission gate on the coordinator: a coordinator-side semaphore can
// deadlock (a parent task holding the tenant's last token blocks in an
// Access that only a child — which cannot get a token — would unblock).
// The worker-side pool inherits the executor's §3.3 discipline instead:
// blocking RPCs release the slot (rpcYield), inline children borrow the
// creator's slot, so a held token always belongs to a task that is
// actually burning CPU.
type MultiServer struct {
	mx    *mux.Mux
	opts  WorkerOptions
	group uint64 // every session worker's process-group token
	pool  *tenantSlots

	mu       sync.Mutex
	sessions map[uint64]*worker
	closed   map[uint64][]access.ObjectID // final cache snapshot per recently finished session
	finished [closedKept]uint64           // closed's keys, a ring in finishing order
	nClosed  int                          // sessions finished so far
	wg       sync.WaitGroup
}

// closedKept bounds the finished sessions a daemon keeps a snapshot of. A
// daemon serves sessions for as long as it runs; keeping every snapshot
// grew its heap with each session closed, and with it the spacing of
// collections, so throughput drifted up over a long run.
const closedKept = 64

// Serve is the one worker entry point, for a run and for a service alike:
// it serves an established connection until it ends. opts.Slots is the
// machine's, shared by all sessions; opts.Name names the plain run's
// worker and prefixes each session worker's.
func Serve(conn transport.Conn, opts WorkerOptions) error {
	return newMultiServer(conn, opts).Serve()
}

// newMultiServer fills in opts' defaults, and the process-group token: 0,
// the coordinator's process, with a shared body table, else one of its
// own. The connection's frames are routed by session from here on.
func newMultiServer(conn transport.Conn, opts WorkerOptions) *MultiServer {
	ms := &MultiServer{mx: mux.New(conn), sessions: map[uint64]*worker{}, closed: map[uint64][]access.ObjectID{}}
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.Kinds == nil {
		opts.Kinds = Kinds
	}
	if opts.Bodies == nil {
		opts.Bodies, ms.group = NewBodyTable(), uniqueGroup()
	}
	ms.opts, ms.pool = opts, newTenantSlots(opts.Slots)
	return ms
}

// Serve serves a plain run on session 0 in the calling goroutine; a
// service closes session 0 instead, and then each session it opens is
// served in a goroutine of its own until the connection ends. It closes
// the connection and returns session 0's error, or the connection's after
// a service, nil for ErrClosed or ErrClosing (an orderly end, or a
// turned-away worker).
func (ms *MultiServer) Serve() error {
	defer ms.mx.Close()
	// A bucket of no tenant's, so no session's tenant, not even "", gets it.
	err := newWorker(ms.mx.Plain(), ms.opts, ms.group, &tenantPool{ts: ms.pool}).serve()
	if errors.Is(err, transport.ErrClosed) {
		err = ms.serveSessions()
	}
	if errors.Is(err, transport.ErrClosed) || errors.Is(err, ErrClosing) {
		return nil
	}
	return err
}

// serveSessions accepts sessions until the connection ends and returns
// its terminal error once every session's worker has finished.
func (ms *MultiServer) serveSessions() error {
	defer ms.wg.Wait()
	for {
		s, err := ms.mx.Accept()
		if err != nil {
			return err
		}
		wopts := ms.opts
		wopts.Name = fmt.Sprintf("%s/s%d", ms.opts.Name, s.ID)
		w := newWorker(s.Conn, wopts, ms.group, ms.pool.view(s.Tenant, s.SlotCap))
		ms.mu.Lock()
		ms.sessions[s.ID] = w
		ms.mu.Unlock()
		ms.wg.Add(1)
		go func() {
			defer ms.wg.Done()
			_ = w.serve()
			ms.mu.Lock()
			ms.finishLocked(s.ID, w.objectIDs())
			delete(ms.sessions, s.ID)
			ms.mu.Unlock()
			s.Conn.Close()
		}()
	}
}

// finishLocked files a finished session's final cache snapshot, dropping
// the oldest once closedKept are filed. Requires ms.mu.
func (ms *MultiServer) finishLocked(id uint64, objs []access.ObjectID) {
	slot := &ms.finished[ms.nClosed%closedKept]
	if ms.nClosed >= closedKept {
		delete(ms.closed, *slot)
	}
	*slot = id
	ms.nClosed++
	ms.closed[id] = objs
}

// SessionObjects reports, per session id, every object id that session's
// worker cache holds (live sessions) or held when it finished (the last
// closedKept closed sessions: the final store + sync-base snapshot, which
// sync bases make a superset of everything that was ever resident). The
// isolation property test intersects these across sessions.
func (ms *MultiServer) SessionObjects() map[uint64][]access.ObjectID {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make(map[uint64][]access.ObjectID, len(ms.sessions)+len(ms.closed))
	for id, objs := range ms.closed {
		out[id] = append([]access.ObjectID(nil), objs...)
	}
	for id, w := range ms.sessions {
		out[id] = w.objectIDs()
	}
	return out
}

// SlotLedger is one daemon's slot accounting: the shared pool plus each
// tenant's usage against its cap. Violation is non-empty if the pool
// ever caught its own invariants broken (a quota exceeded, or per-tenant
// holds not summing to the global hold) — the exactness check the
// isolation property test pins.
type SlotLedger struct {
	Slots     int // shared pool capacity
	Held      int // tokens currently held across all tenants
	PerTenant map[string]TenantSlotUse
	Violation string
}

// TenantSlotUse is one tenant's slot usage on one daemon.
type TenantSlotUse struct {
	Cap  int // per-worker quota (0 = uncapped)
	Held int // tokens currently held
	Peak int // high-water mark of Held
}

// tenantSlots is a host's slot gate: the shared, quota-aware pool its
// sessions draw on, a plain run through a bucket of no tenant's. Acquire
// order is fixed — tenant token first, then global token — so there is no
// circular wait: a task holding its tenant token and blocked on the global
// pool is waiting only on tasks that already hold global tokens, and those
// always release (task end or rpcYield).
type tenantSlots struct {
	total  int
	global chan struct{}

	mu        sync.Mutex
	held      int
	tenants   map[string]*tenantPool
	violation string
}

// tenantPool is one tenant's bucket of a worker's slots, the gate its
// sessions' workers see. acquire blocks for a slot under the tenant's
// quota, returning false once abort is closed, even with a slot free.
type tenantPool struct {
	ts   *tenantSlots
	cap  int
	sem  chan struct{} // nil when uncapped
	held int
	peak int
}

// tokens returns a channel holding n tokens.
func tokens(n int) chan struct{} {
	c := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		c <- struct{}{}
	}
	return c
}

func newTenantSlots(total int) *tenantSlots {
	return &tenantSlots{total: total, global: tokens(total), tenants: map[string]*tenantPool{}}
}

// view returns one tenant's bucket, creating it on first use. Sessions of
// the same tenant share the bucket — the quota is per tenant per worker,
// not per session.
func (ts *tenantSlots) view(tenant string, cap int) *tenantPool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	b, ok := ts.tenants[tenant]
	if !ok {
		b = &tenantPool{ts: ts, cap: cap}
		if cap > 0 {
			b.sem = tokens(cap)
		}
		ts.tenants[tenant] = b
	}
	return b
}

// note moves a tenant's hold count by delta and self-checks the pool
// invariants, recording the first violation instead of panicking (the
// tests assert it stays empty).
func (ts *tenantSlots) note(b *tenantPool, delta int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	b.held += delta
	ts.held += delta
	b.peak = max(b.peak, b.held)
	if ts.violation == "" {
		sum := b.held // with one bucket in use, its hold is the sum
		if len(ts.tenants) > 1 {
			sum = 0
			for _, t := range ts.tenants {
				sum += t.held
			}
		}
		switch {
		case b.cap > 0 && b.held > b.cap:
			ts.violation = fmt.Sprintf("tenant holds %d slots, cap %d", b.held, b.cap)
		case b.held < 0 || ts.held < 0:
			ts.violation = fmt.Sprintf("negative hold: tenant %d, global %d", b.held, ts.held)
		case ts.held > ts.total:
			ts.violation = fmt.Sprintf("pool holds %d slots, capacity %d", ts.held, ts.total)
		case sum != ts.held:
			ts.violation = fmt.Sprintf("per-tenant holds sum to %d, global hold is %d", sum, ts.held)
		}
	}
}

// Ledger snapshots the shared slot pool's per-tenant accounting.
func (ms *MultiServer) Ledger() SlotLedger {
	ts := ms.pool
	ts.mu.Lock()
	defer ts.mu.Unlock()
	l := SlotLedger{
		Slots: ts.total, Held: ts.held,
		PerTenant: make(map[string]TenantSlotUse, len(ts.tenants)),
		Violation: ts.violation,
	}
	for name, b := range ts.tenants {
		l.PerTenant[name] = TenantSlotUse{Cap: b.cap, Held: b.held, Peak: b.peak}
	}
	return l
}

func (b *tenantPool) acquire(abort <-chan struct{}) bool {
	select {
	case <-abort:
		return false
	default:
	}
	if b.sem != nil {
		select {
		case <-b.sem:
		case <-abort:
			return false
		}
	}
	select {
	case <-b.ts.global:
	case <-abort:
		if b.sem != nil {
			b.sem <- struct{}{}
		}
		return false
	}
	b.ts.note(b, +1)
	return true
}

func (b *tenantPool) release() {
	b.ts.note(b, -1)
	b.ts.global <- struct{}{}
	if b.sem != nil {
		b.sem <- struct{}{}
	}
}
