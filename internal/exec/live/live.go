// Package live is the message-passing Jade executor that runs over real
// transports (goroutine pipes or TCP sockets) instead of the discrete-
// event simulator: the repo's analogue of the paper's network-of-
// workstations implementation on the Mica Ethernet array.
//
// Topology is hub-and-spoke: the coordinator (machine 0) runs the main
// program, the dependency engine, and the object directory; N workers
// (machines 1..N) run task bodies. All coherence traffic relays through
// the coordinator, the way every message on the paper's shared Ethernet
// passed through one wire. The coordinator and the simulated distributed
// executor share the same protocol — migrate an object to a writer and
// invalidate the other copies, replicate to readers, retain invalidated
// copies as shadows so re-fetches travel as format.Diff patches — so a
// program debugged on the simulator runs unchanged on sockets.
//
// The division of labor over the wire:
//
//   - Coordinator → worker: task dispatches, object images/patches/zero
//     grants, invalidations, and RPC replies.
//   - Worker → coordinator: every rt.TC operation a body performs
//     (Access, Create, Alloc, Convert, Retract, EndAccess, ...) travels
//     as a small RPC, and task completion comes back the same way. A
//     frame by which a task releases a write right carries what the task
//     wrote, so the coordinator's cache holds every committed generation
//     and never has to ask a worker for bytes.
//
// One object transfer copies the object's bytes once per hop. The sender
// encodes the image or patch once, straight into the frame (a push) or the
// write-back record (a release); the receiver decodes it once. A worker's
// sync base is the value it installed, shared with its store until a write
// grant un-shares it, so a read-only grant costs no second copy.
//
// A task blocked in an RPC sends nothing else, so the per-connection
// FIFO order of transport.Conn gives the same happens-before edges the
// simulator got from virtual time.
package live

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/format"
	"repro/internal/netmodel"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// ringCap bounds the always-on event stream when tracing is off. It is
// smaller than smp's and dist's 2^16 for its bytes, not for the GC (the
// ring holds no pointers): a ring allocates its 224 KiB blocks as events
// arrive, and this one is a single block, where theirs grow to sixteen
// (3.5 MiB) in a run that records 2^16 events. Every live runtime has a
// ring of its own, except a service session: it takes a ring a closed
// session gave back (Options.Ring), blocks and all, and gives its own
// back at Close.
const ringCap = 1 << 12

// Options configure the coordinator.
type Options struct {
	// Peers are the connections to workers already running Serve,
	// machines 1..len(Peers).
	Peers []transport.Conn
	// Bodies is the body table shared with same-process workers. nil
	// allocates a fresh table (fine when all workers are remote).
	Bodies *BodyTable
	// MaxLiveTasks bounds concurrently existing tasks; creators above
	// the bound inline the child (§3.3). 0 means 64 × workers.
	MaxLiveTasks int
	// Format is the coordinator's native byte order.
	Format format.ByteOrder
	// Trace enables full event recording.
	Trace bool
	// OnTaskDone, if set, is called synchronously each time a dispatched
	// task retires, with the total retired so far. The chaos harness
	// uses it to fire scripted kills, joins, and drains at deterministic
	// points in a run's progress.
	OnTaskDone func(done int)
	// Fleet, if set, gives the placer a fleet-level load view shared by
	// every coordinator multiplexed onto the same worker fleet: place()
	// compares Load(m) across machines instead of this session's private
	// pendingTasks, so one chatty session cannot pile its tasks onto a
	// worker another session is already saturating. Charge/Uncharge are
	// paired with every pendingTasks transition.
	Fleet FleetView
	// FirstObjectID offsets this executor's object-id space (0 means 1,
	// the classic single-session numbering). The tenant service gives
	// each session a disjoint range so cross-session isolation is
	// checkable by inspection: a foreign id in any cache is a leak.
	FirstObjectID access.ObjectID
	// Ring, if set and Trace is off, is the empty ring to record into
	// instead of a new one: a tenant service recycles its sessions' rings.
	Ring *trace.Log
}

// FleetView is the shared placement ledger of a multi-session fleet.
// Implementations must be safe for concurrent use and non-blocking:
// Load is read under the coordinator's scheduler lock.
type FleetView interface {
	// Charge records one task placed on machine m of this session.
	Charge(m int)
	// Uncharge reverses a Charge when the task retires or is re-placed.
	Uncharge(m int)
	// Load reports the fleet-wide outstanding task count on machine m.
	Load(m int) int
}

// staleKey names one worker's retained stale copy of one object.
type staleKey struct {
	m   int
	obj access.ObjectID
}

// payload is the executor attachment on core tasks.
type payload struct {
	bodyKey  uint64
	group    uint64 // process group owning bodyKey (0 = coordinator's)
	kind     string
	kindArgs []byte
	opts     rt.TaskOpts
	creator  int // machine that executed the withonly-do
	machine  int
	inline   bool
	skipBody bool
	// arrivals counts the events a new task waits on before it may start:
	// the engine found it ready, its creator recorded its creation, and, for
	// an inline child, its creator asked to start it (startInline, which
	// sets start first). The last to arrive acts (onReady).
	arrivals atomic.Int32
	start    func()

	// body is the closure retained coordinator-side (when the creator
	// runs in the coordinator's process) so the task can be redispatched
	// after a worker crash consumed the table entry.
	body func(rt.TC)
	// attempt counts dispatch attempts; >0 means redispatch after a
	// placement was lost. Guarded by x.mu.
	attempt int
	// sent is the ownership handshake between dispatch() and the
	// recovery sweep: true once the dispatch frame shipped, at which
	// point orphan recovery (not the dispatch) owns failures.
	// Guarded by x.mu.
	sent bool
}

// workerLink is the coordinator's view of one connected worker.
type workerLink struct {
	x     *Exec
	m     int // machine index (1-based)
	conn  transport.Conn
	name  string
	caps  map[string]bool
	fmt   format.ByteOrder
	group uint64
	// slots is the concurrent task capacity the worker advertised in its
	// hello; surfaced by Stats so quota starvation is debuggable.
	slots int

	// Scheduler load estimate; guarded by x.mu.
	pendingTasks int

	// state is the membership lifecycle; guarded by x.mu.
	state memberState
	// started reports whether recvLoop was launched (and so recvDone
	// will close); guarded by x.mu.
	started bool
	// lostOnce makes the declaration of the worker's death exactly-once.
	lostOnce sync.Once

	// Wire-traffic counters for this link, split by direction. Updated
	// lock-free on the per-frame send/recv hot paths and read
	// transiently by Stats; the statMu-guarded global ledger keeps
	// only handshake traffic, which flows before the link exists.
	outMsgs, outBytes, inMsgs, inBytes atomic.Int64
	// recvDone closes when the worker's receive loop exits; recovery
	// waits on it so no late frame handler races the directory sweep.
	recvDone chan struct{}
}

// Exec is the live coordinator. Create with New; each Exec runs one
// program.
type Exec struct {
	opts    Options
	eng     *core.Engine
	log     *trace.Log
	start   time.Time
	bodies  *BodyTable
	workers []*workerLink

	// fatal closes when a transport-level failure makes progress
	// impossible (worker connection died, protocol error). Run and the
	// main program's waits select on it so the run unwinds instead of
	// hanging.
	fatal     chan struct{}
	fatalOnce sync.Once

	// admitMu serializes handshakes (initial and elastic joins) with
	// machine-index assignment; the handshake itself cannot run under
	// x.mu because it blocks on the connection.
	admitMu sync.Mutex
	// recMu serializes crash recoveries: concurrent deaths are recovered
	// one at a time.
	recMu sync.Mutex

	// mu guards executor bookkeeping: task maps, throttle, scheduler load,
	// membership state, first error.
	mu          sync.Mutex
	started     bool
	closing     bool
	epoch       uint64   // membership epoch; parked steps run when it moves
	parked      []func() // steps waiting for the epoch to move (park)
	nextMachine int      // next machine index to assign (indices never reused)
	tasks       map[core.TaskID]*core.Task
	liveUser    int
	nextObj     access.ObjectID
	firstErr    error

	// coh serializes the coherence protocol: directory state, the
	// coordinator's value cache, the stale-copy images, the pushes that
	// move object bytes out and the write-backs that bring them home.
	// Coarse by design — the protocol's invariants are stated against a
	// serialized transition order, the same order the simulator got for
	// free from virtual time. Nothing waits on the network while holding
	// it (lockdiscipline_test.go at the repo root).
	coh sync.Mutex
	// dir is the object directory with each worker's shadow generations
	// and the write grants not yet released. vals at cacheVer is the
	// committed frontier: a writer's bytes arrive on the frame that
	// releases its write (committed ⇒ cached), so the cache is what a dead
	// worker's objects roll back to (see fault.go).
	dir      *coherence.Directory
	vals     map[access.ObjectID]any // machine-0 store and relay cache
	cacheVer map[access.ObjectID]uint64
	// stale[{m, obj}] is what worker m's invalidated copy of obj holds: an
	// immutable clone of the cache at the generation the directory froze
	// m's shadow at, shared by every worker invalidated by the same write
	// grant. It is the diff base for the next push of obj to m.
	stale map[staleKey]any

	// statMu guards the metrics ledgers.
	statMu    sync.Mutex
	net       netmodel.Stats
	dstats    rt.DeltaStats
	fstats    fault.Stats
	convWords int
	busy      []time.Duration // per machine (0 = coordinator)
	tasksRun  int
	retired   int // dispatched tasks retired (drives Options.OnTaskDone)

	wg sync.WaitGroup // dispatched (non-inline) tasks in flight
	// bg tracks the recovery and drain-completion goroutines. Each is
	// added under x.mu while !x.closing, and Run waits only after it has
	// set closing, so every Add happens before the Wait.
	bg sync.WaitGroup

	// readied are the tasks onReady let go that no dispatchReadied has
	// taken yet.
	readyMu sync.Mutex
	readied []*core.Task
}

// New returns a coordinator for the connected workers.
func New(opts Options) (*Exec, error) {
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("live: no workers")
	}
	if opts.MaxLiveTasks <= 0 {
		opts.MaxLiveTasks = 64 * len(opts.Peers)
	}
	if opts.Bodies == nil {
		opts.Bodies = NewBodyTable()
	}
	if opts.FirstObjectID == 0 {
		opts.FirstObjectID = 1
	}
	n := len(opts.Peers) + 1
	x := &Exec{
		opts:        opts,
		bodies:      opts.Bodies,
		fatal:       make(chan struct{}),
		nextMachine: 1,
		tasks:       map[core.TaskID]*core.Task{},
		nextObj:     opts.FirstObjectID,
		dir:         coherence.NewDirectory(),
		vals:        map[access.ObjectID]any{},
		cacheVer:    map[access.ObjectID]uint64{},
		stale:       map[staleKey]any{},
		busy:        make([]time.Duration, n),
	}
	switch {
	case opts.Trace:
		x.log = trace.New()
	case opts.Ring != nil:
		x.log = opts.Ring
	default:
		x.log = trace.NewRing(ringCap)
	}
	x.eng = core.New(core.Hooks{
		Ready: x.onReady,
		Violation: func(t *core.Task, err error) {
			x.record(trace.Event{Kind: trace.Violation, Task: uint64(t.ID), Label: err.Error()})
			x.fail(err)
		},
		Depend: func(later *core.Task, deps []core.Dep) {
			x.log.AddDepends(time.Since(x.start), later, deps)
		},
	})
	return x, nil
}

// Engine implements rt.Exec.
func (x *Exec) Engine() *core.Engine { return x.eng }

// Log implements rt.Exec.
func (x *Exec) Log() *trace.Log { return x.log }

// Counters implements rt.Exec.
func (x *Exec) Counters() rt.Counters {
	x.statMu.Lock()
	defer x.statMu.Unlock()
	return rt.Counters{
		TasksRun: x.tasksRun,
		Busy:     append([]time.Duration(nil), x.busy...),
	}
}

// Stats implements rt.Exec. Every section is lock-protected or atomic,
// so it is safe to call while the run is in flight (a metrics scrape).
// Makespan stays zero: a live run's duration is wall time.
func (x *Exec) Stats() rt.Stats {
	x.mu.Lock()
	links := append([]*workerLink(nil), x.workers...)
	slots := make([]rt.WorkerSlots, 0, len(links))
	for _, w := range links {
		ws := rt.WorkerSlots{
			Machine: w.m, Name: w.name, State: w.state.String(),
			Slots: w.slots, Held: w.pendingTasks,
		}
		if ws.Free = ws.Slots - ws.Held; ws.Free < 0 {
			ws.Free = 0
		}
		slots = append(slots, ws)
	}
	x.mu.Unlock()

	x.statMu.Lock()
	st := rt.Stats{
		Net:            x.net,
		Delta:          x.dstats,
		Fault:          x.fstats,
		ConvertedWords: x.convWords,
		Workers:        slots,
	}
	st.Net.ByLink = make(map[netmodel.Link]netmodel.LinkStats, len(x.net.ByLink)+2*len(links))
	for k, v := range x.net.ByLink {
		st.Net.ByLink[k] = v
	}
	x.statMu.Unlock()

	// Net is the real frame traffic, every protocol frame counted once per
	// direction with the coordinator as machine 0 in ByLink: fold in the
	// lock-free per-link counters. Links are never removed from x.workers
	// (departed members are state-marked), so departed traffic is still
	// here.
	fold := func(l netmodel.Link, msgs, bytes int64) {
		if msgs == 0 {
			return
		}
		ls := st.Net.ByLink[l]
		ls.Messages += int(msgs)
		ls.Bytes += bytes
		st.Net.ByLink[l] = ls
		st.Net.Messages += int(msgs)
		st.Net.Bytes += bytes
	}
	for _, w := range links {
		fold(netmodel.Link{Src: 0, Dst: w.m}, w.outMsgs.Load(), w.outBytes.Load())
		fold(netmodel.Link{Src: w.m, Dst: 0}, w.inMsgs.Load(), w.inBytes.Load())
		// Fault also counts the heartbeats each worker connection sent.
		if sr, ok := w.conn.(transport.Statser); ok {
			st.Fault.HeartbeatsSent += int(sr.Stats().Heartbeats)
		}
	}
	return st
}

func (x *Exec) record(ev trace.Event) {
	ev.At = time.Since(x.start)
	x.log.Add(ev)
}

func (x *Exec) fail(err error) {
	x.mu.Lock()
	if x.firstErr == nil {
		x.firstErr = err
	}
	x.mu.Unlock()
}

// failFatal records err and aborts the run: the main program unwinds via
// the fatal channel, and the parked steps are dropped unanswered.
func (x *Exec) failFatal(err error) {
	x.fail(err)
	x.fatalOnce.Do(func() { close(x.fatal) })
	x.mu.Lock()
	x.parked = nil
	x.mu.Unlock()
}

func (x *Exec) firstError() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.firstErr
}

// countFrame charges one protocol frame to the network ledger.
func (x *Exec) countFrame(src, dst, bytes int) {
	x.statMu.Lock()
	defer x.statMu.Unlock()
	x.net.Messages++
	x.net.Bytes += int64(bytes)
	if x.net.ByLink == nil {
		x.net.ByLink = map[netmodel.Link]netmodel.LinkStats{}
	}
	l := netmodel.Link{Src: src, Dst: dst}
	ls := x.net.ByLink[l]
	ls.Messages++
	ls.Bytes += int64(bytes)
	x.net.ByLink[l] = ls
}

// send encodes and ships one frame to the worker, charging the ledger.
// The encode buffer is pooled: ownership passes to the transport (or
// back to the pool) inside SendPooled. A send failure is a failure-
// detector verdict on this worker, not on the run: the session is torn
// down and recovery takes over.
func (w *workerLink) send(f *wire.Frame) error {
	buf, err := wire.AppendFrame(transport.GetBuf(), f)
	if err != nil {
		return w.encodeFailed(f, err)
	}
	return w.ship(buf, f.Type)
}

// encodeFailed fails the run over a frame that could not be encoded.
func (w *workerLink) encodeFailed(f *wire.Frame, err error) error {
	err = fmt.Errorf("live: encode %s for worker %d (%s): %w", wire.TypeName(f.Type), w.m, w.name, err)
	w.x.failFatal(err)
	return err
}

// ship sends an encoded frame of type typ from a pooled buffer, as send
// does.
func (w *workerLink) ship(buf []byte, typ byte) error {
	w.outMsgs.Add(1)
	w.outBytes.Add(int64(len(buf)))
	if err := transport.SendPooled(w.conn, buf); err != nil {
		err = fmt.Errorf("live: send %s to worker %d (%s): %w", wire.TypeName(typ), w.m, w.name, err)
		w.x.workerLost(w, err)
		return fmt.Errorf("%w: %w", errWorkerLost, err)
	}
	return nil
}

// reply sends an RPC reply; errText "" means success.
func (w *workerLink) reply(req uint64, errText string, a, b uint64) {
	w.send(&wire.Frame{Type: wire.TReply, Req: req, Label: errText, A: a, B: b})
}

// handshake performs the Hello/Welcome exchange with the peer that is to
// be machine m. It always returns the link: a peer that dies or misspeaks
// before its welcome is out goes through workerLost like any other member,
// and comes back as a dead one. Only a death (a transport error, not a
// wrong frame) is reported as errWorkerLost.
func (x *Exec) handshake(conn transport.Conn, m int) (*workerLink, error) {
	w := &workerLink{
		x:        x,
		m:        m,
		conn:     conn,
		name:     fmt.Sprintf("worker-%d", m),
		caps:     map[string]bool{},
		slots:    1, // pre-slot-reporting worker: it runs at least one task
		recvDone: make(chan struct{}),
	}
	lost := func(err error) (*workerLink, error) {
		x.workerLost(w, err)
		return w, err
	}
	msg, err := conn.Recv()
	if err != nil {
		return lost(fmt.Errorf("live: worker %d: waiting for hello: %w: %w", m, errWorkerLost, err))
	}
	x.countFrame(m, 0, len(msg))
	f, err := wire.Decode(msg)
	if err != nil {
		return lost(fmt.Errorf("live: worker %d: %w", m, err))
	}
	if f.Type != wire.THello {
		return lost(fmt.Errorf("live: worker %d: expected hello, got %s", m, wire.TypeName(f.Type)))
	}
	w.fmt, w.group = format.ByteOrder(f.A), f.B
	if f.C > 0 {
		w.slots = int(f.C)
	}
	if f.Label != "" {
		w.name = f.Label
	}
	for _, c := range strings.Split(f.Aux, ",") {
		if c = strings.TrimSpace(c); c != "" {
			w.caps[c] = true
		}
	}
	if err := w.send(&wire.Frame{Type: wire.TWelcome, A: uint64(m)}); err != nil {
		return w, err // send has already declared the worker lost
	}
	return w, nil
}

// Run implements rt.Exec: handshake the workers, execute the main
// program on machine 0, and drive the protocol until every task is done.
func (x *Exec) Run(root func(rt.TC)) error {
	x.mu.Lock()
	if x.started {
		x.mu.Unlock()
		return fmt.Errorf("live: Run called twice on the same executor")
	}
	x.started = true
	x.start = time.Now()
	x.mu.Unlock()
	x.eng.SetClock(func() int64 { return int64(time.Since(x.start)) })

	// A peer that dies during its handshake is a member lost before the
	// first task, not a reason to abandon the program: the run goes ahead on
	// the others.
	for _, c := range x.opts.Peers {
		if _, err := x.admit(c, false); err != nil && !errors.Is(err, errWorkerLost) {
			x.failFatal(err)
			return x.firstError()
		}
	}
	if active, _, _, _ := x.Members(); active == 0 {
		x.failFatal(fmt.Errorf("live: no worker survived the handshake: %w", errWorkerLost))
		return x.firstError()
	}

	rootT := x.eng.Root()
	tc := &mainCtx{x: x, t: rootT}
	tc.heldSince = time.Now()
	x.record(trace.Event{Kind: trace.TaskScheduled, Task: uint64(rootT.ID), Dst: 0, Label: "main"})
	x.record(trace.Event{Kind: trace.TaskStarted, Task: uint64(rootT.ID), Dst: 0, Label: "main"})
	x.runBody(tc, root)
	x.record(trace.Event{Kind: trace.TaskCompleted, Task: uint64(rootT.ID), Dst: 0})
	if err := x.complete(rootT); err != nil {
		x.fail(err)
	}
	x.record(trace.Event{Kind: trace.TaskCommitted, Task: uint64(rootT.ID), Dst: 0})
	x.statMu.Lock()
	x.tasksRun++
	x.busy[0] += time.Since(tc.heldSince)
	x.statMu.Unlock()

	// Wait for every dispatched task, unless the run is already doomed.
	done := make(chan struct{})
	go func() { x.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-x.fatal:
		return x.firstError()
	}

	// Every task has retired, so every written generation is in the cache:
	// ObjectValue needs nothing from the workers. Shut membership: from here
	// no recovery or drain completion can start, and the ones in flight are
	// joined before the counters they update are read.
	x.mu.Lock()
	x.closing = true
	x.parked = nil
	x.mu.Unlock()
	x.bg.Wait()
	for _, w := range x.workerList() {
		x.mu.Lock()
		st := w.state
		x.mu.Unlock()
		if st == memberDead || st == memberLeft {
			continue // already fenced or already said goodbye
		}
		w.send(&wire.Frame{Type: wire.TBye})
		w.conn.Close()
	}
	return x.firstError()
}

// runBody executes a task body on the coordinator, converting panics
// into program failure.
func (x *Exec) runBody(tc rt.TC, body func(rt.TC)) {
	defer func() {
		if r := recover(); r != nil {
			t := tc.CoreTask()
			x.fail(fmt.Errorf("task %d (%v) panicked: %v", t.ID, t.Seq, r))
		}
	}()
	body(tc)
}

// ObjectValue implements rt.Exec: the coordinator's cached value, which
// is the committed one — final once Run has returned.
func (x *Exec) ObjectValue(obj access.ObjectID) any {
	x.coh.Lock()
	defer x.coh.Unlock()
	return x.vals[obj]
}

// onReady is the join a new task waits on: it is called once when the
// engine finds the task ready (the Ready hook), once when its creator has
// recorded its creation (createTask) and, for an inline child, once when its
// creator asks to start it (startInline), and acts on the last call. An
// inline child is staged and started, and its creator answered, right there;
// a scheduled task is handed to whoever made that call, which dispatches it
// as soon as its engine call has returned (dispatchReadied). So each task's
// trace reads Created → Ready → Assigned → Started, and a creator returning
// from eng.Create never finds its child already dispatched.
func (x *Exec) onReady(t *core.Task) {
	pl := t.Payload.(*payload)
	need := int32(2)
	if pl.inline {
		need = 3
	}
	if pl.arrivals.Add(1) < need {
		return
	}
	x.record(trace.Event{Kind: trace.TaskReady, Task: uint64(t.ID)})
	if pl.inline {
		pl.start()
		return
	}
	x.register(t)
	x.wg.Add(1)
	x.readyMu.Lock()
	x.readied = append(x.readied, t)
	x.readyMu.Unlock()
}

// dispatchReadied dispatches the tasks onReady has let go, on the goroutine
// whose engine call readied them, right after that call (along with any
// another goroutine's call left meanwhile). Tasks readied together go in
// program order, not in the order the engine's queues woke them, and a
// creator (yield) yields once first, as the goroutine start this replaces
// made it: without either, placement lands tasks away from their objects
// more often (DESIGN.md §4.14). A receive loop does not yield — its
// retirement has just freed the load it places on, and a yield there lets
// the tcp writer flush each dispatch on its own.
func (x *Exec) dispatchReadied(yield bool) {
	var buf [8]*core.Task
	x.readyMu.Lock()
	ts := append(buf[:0], x.readied...)
	x.readied = x.readied[:0]
	x.readyMu.Unlock()
	if len(ts) == 0 {
		return
	}
	if yield {
		runtime.Gosched()
	}
	slices.SortFunc(ts, func(a, b *core.Task) int { return cmp.Compare(a.ID, b.ID) })
	for _, t := range ts {
		x.dispatch(t, t.Payload.(*payload))
	}
}

// complete retires t in the engine and dispatches the tasks that readied.
func (x *Exec) complete(t *core.Task) error {
	err := x.eng.Complete(t)
	x.dispatchReadied(false)
	return err
}

// retract withdraws t's rights on obj in the engine and dispatches the
// tasks that readied.
func (x *Exec) retract(t *core.Task, obj access.ObjectID, which access.Mode) error {
	err := x.eng.Retract(t, obj, which)
	x.dispatchReadied(false)
	return err
}

// dispatchCarrier coalesces the dispatch control frame onto the task's
// first object push (the same optimization the simulated distributed
// executor applies): the encoded TDispatch rides the push
// (wire.Frame.Dispatch), so a task whose objects must move anyway starts
// without a separate control frame. Attach-once — the flag survives fetch
// retries inside one placement attempt, so an epoch-parked re-stage never
// ships the dispatch twice. Mutated under x.coh (pushes run inside the
// coherence critical section); read by its dispatch afterwards.
type dispatchCarrier struct {
	m        int    // the placed worker; only its pushes may carry
	frame    []byte // encoded TDispatch, in a pooled buffer
	attached bool
}

// attachTo piggybacks the dispatch onto push frame f bound for machine m
// if this carrier still wants a ride there. The push is encoded before the
// carrier's buffer is recycled, so f shares the bytes.
func (c *dispatchCarrier) attachTo(f *wire.Frame, m int) {
	if c == nil || c.attached || m != c.m {
		return
	}
	f.Dispatch = c.frame
	c.attached = true
}

// appendPregrantsLocked appends to dst the pre-grant records of t's
// staging — a 4-byte count, then one wire access record per immediate
// non-commuting declaration, a write grant followed by the generation it
// will start — and then tail (a dispatch's kind args; nothing in an inline
// child's start reply). The worker answers an Access the records cover
// locally and checks it in on the task's next frame (wire.Frame.Checkins,
// the same record going the other way) instead of paying a blocking RPC,
// and labels what it writes back with the generation named here, so both
// sides count generations without a round trip. Requires x.coh, held
// through the staging that follows: each write grant bumps its object's
// version once.
func (x *Exec) appendPregrantsLocked(dst []byte, t *core.Task, tail []byte) []byte {
	decls := t.ImmediateDecls()
	at := len(dst)
	buf := slices.Grow(dst, 4+(wire.AccessRecLen+8)*len(decls)+len(tail))[:at+4]
	n := uint32(0)
	for _, d := range decls {
		m := d.Mode & access.ReadWrite
		if m == 0 || d.Mode.Has(access.Commute) {
			continue
		}
		n++
		buf = wire.AppendAccessRec(buf, uint64(d.Object), byte(m))
		if m.Has(access.Write) {
			var gen uint64 // stays 0 for an object nobody allocated; staging refuses it
			if e := x.dir.Entry(d.Object); e != nil {
				gen = e.Version + 1
			}
			buf = binary.LittleEndian.AppendUint64(buf, gen)
		}
	}
	binary.LittleEndian.PutUint32(buf[at:], n)
	return append(buf, tail...)
}

// unmarshalDispatchPayload is the worker-side inverse: the pre-granted
// modes, the write grants among them with their generations — each list in
// payload order, which is object order — and the tail. The lists are
// appended to grants[:0] and writes[:0], so a runner reuses their storage
// from task to task.
func unmarshalDispatchPayload(data []byte, grants []pregrant, writes []writeGrant) ([]pregrant, []writeGrant, []byte, error) {
	grants, writes = grants[:0], writes[:0]
	if len(data) == 0 {
		return grants, writes, nil, nil
	}
	if len(data) < 4 || uint64(binary.LittleEndian.Uint32(data)) > uint64(len(data))/wire.AccessRecLen {
		return nil, nil, nil, fmt.Errorf("live: dispatch payload of %d bytes cannot hold the pre-grants it declares", len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	for i := uint32(0); i < n; i++ {
		if len(data) < wire.AccessRecLen {
			return nil, nil, nil, fmt.Errorf("live: dispatch payload ends inside pre-grant %d of %d", i+1, n)
		}
		obj, mode := wire.AccessRec(data)
		data = data[wire.AccessRecLen:]
		grants = append(grants, pregrant{obj: access.ObjectID(obj), mode: access.Mode(mode)})
		if access.Mode(mode).Has(access.Write) {
			if len(data) < 8 {
				return nil, nil, nil, fmt.Errorf("live: dispatch payload ends inside the generation of pre-grant %d of %d", i+1, n)
			}
			writes = append(writes, writeGrant{obj: access.ObjectID(obj), gen: binary.LittleEndian.Uint64(data)})
			data = data[8:]
		}
	}
	if len(data) == 0 {
		data = nil
	}
	return grants, writes, data, nil
}

// dispatch places one ready task on a worker, stages its declared
// objects there, and ships the dispatch frame — coalesced onto the
// first object push when one goes to the placed worker, standalone
// otherwise. The worker's TaskDone resolves the wg entry. The task is
// started in the engine BEFORE staging: a coalesced dispatch can reach
// the worker mid-stage, and its first accesses must find a Running
// task. When a worker dies under the dispatch, the pl.sent handshake
// decides who re-places the task: the recovery sweep if it claimed the
// orphan first, this dispatch otherwise.
//
// dispatch runs on the goroutine that made t ready (dispatchReadied), or
// on the recovery sweep's, and waits for nothing there, so a receive loop
// that retires one task can send the next. A step that must wait for the
// membership to change — no live worker to place on, or an object still
// listed under a dead worker the sweep has not reached — parks (park) and
// goes on from the goroutine that moves the epoch.
func (x *Exec) dispatch(t *core.Task, pl *payload) {
	placed := x.epochNow()
	w, err := x.placeTask(t, pl)
	if errors.Is(err, errWorkerLost) {
		// Every worker is momentarily gone (mid-recovery, or between a
		// drain and a join). Wait for membership to change rather than
		// declaring the program wrong.
		x.park(placed, func() { x.dispatch(t, pl) })
		return
	}
	if err != nil {
		// No worker may legally run this task. Record the violation
		// and run only the lifecycle so the program terminates (same
		// policy as the simulated executor).
		x.record(trace.Event{Kind: trace.Violation, Task: uint64(t.ID), Label: err.Error()})
		x.fail(err)
		pl.skipBody = true
		x.finishSkipped(t, pl)
		return
	}
	if df, ok := x.startOn(t, pl, w); ok {
		x.stageDispatch(t, pl, w, df, placed)
	}
}

// stageDispatch stages t, placed on w at epoch placed, and ships its
// dispatch frame df. A staging that finds an object still listed under a
// dead worker granted and sent nothing, and is tried again on w once the
// epoch moves; one that loses w itself places t afresh.
func (x *Exec) stageDispatch(t *core.Task, pl *payload, w *workerLink, df wire.Frame, placed uint64) {
	seen := x.epochNow()
	car := dispatchCarrier{m: w.m}
	x.coh.Lock()
	ferr := x.stageDispatchLocked(t, &df, pl.kindArgs, &car)
	x.coh.Unlock()
	if ferr != nil || car.attached {
		transport.PutBuf(car.frame) // a push carried a copy, or nothing is sent
	}
	if errors.Is(ferr, errWorkerLost) && x.member(w.m) {
		retry := df // a copy of its own, so that df stays off the heap
		x.park(seen, func() { x.stageDispatch(t, pl, w, retry, placed) })
		return
	}
	if ferr == nil && !car.attached {
		// Nothing shipped to w during staging (its copies were all
		// current): the encoded dispatch crosses the wire on its own.
		ferr = w.ship(car.frame, wire.TDispatch)
	}
	if ferr != nil {
		x.mu.Lock()
		mine := pl.sent && pl.machine == w.m
		if mine {
			pl.sent = false
			pl.machine = -1
			pl.attempt++
			w.pendingTasks--
			x.fleetUncharge(w.m)
		}
		x.mu.Unlock()
		switch {
		case !mine: // the recovery sweep claimed and redispatched it
		case errors.Is(ferr, errWorkerLost):
			x.park(placed, func() { x.dispatch(t, pl) })
		default:
			x.failFatal(ferr)
		}
		return
	}
	x.record(trace.Event{Kind: trace.TaskFetched, Task: uint64(t.ID), Dst: w.m, Label: pl.opts.Label})
	// Started is recorded at dispatch: the span to TaskCompleted includes
	// wire latency and worker-side queueing, which on a live network is
	// real execution overhead rather than measurement error.
	x.record(trace.Event{Kind: trace.TaskScheduled, Task: uint64(t.ID), Dst: w.m, Label: pl.opts.Label})
	x.record(trace.Event{Kind: trace.TaskStarted, Task: uint64(t.ID), Dst: w.m, Label: pl.opts.Label})
	if car.attached {
		x.statMu.Lock()
		x.dstats.CoalescedDispatches++
		x.statMu.Unlock()
		x.record(trace.Event{Kind: trace.DispatchCoalesced, Task: uint64(t.ID), Dst: w.m, Label: pl.opts.Label})
	}
}

// placeTask picks t's worker and charges the task to it.
func (x *Exec) placeTask(t *core.Task, pl *payload) (*workerLink, error) {
	// Locality snapshot for the placement tiebreak: how many of the task's
	// declared objects each machine already holds. Gathered under coh
	// before taking mu (lock order is coh → mu, never the reverse). The
	// counts live on the stack for a fleet of up to 15 workers.
	var onStack [16]int
	held := onStack[:]
	if n := x.machineCount() + 1; n <= len(held) {
		held = held[:n]
	} else {
		held = make([]int, n)
	}
	x.coh.Lock()
	for _, d := range t.ImmediateDecls() {
		if dir := x.dir.Entry(d.Object); dir != nil {
			for _, c := range dir.Holders() {
				if c < len(held) {
					held[c]++
				}
			}
		}
	}
	x.coh.Unlock()
	x.mu.Lock()
	defer x.mu.Unlock()
	w, err := x.place(pl, held)
	if err == nil {
		pl.machine = w.m
		pl.sent = false
		w.pendingTasks++
		x.fleetCharge(w.m)
	}
	return w, err
}

// startOn starts t, placed on w, in the engine and builds its dispatch
// frame, or retires the task and returns !ok when the engine refuses it.
// The task is started before staging: a coalesced dispatch reaches the
// worker with the first push, and the check-ins of the accesses it
// triggers must find a Running task.
func (x *Exec) startOn(t *core.Task, pl *payload, w *workerLink) (df wire.Frame, ok bool) {
	x.record(trace.Event{Kind: trace.TaskAssigned, Task: uint64(t.ID), Dst: w.m, Label: pl.opts.Label})
	if pl.attempt == 0 || t.State() != core.Running {
		if err := x.eng.Start(t); err != nil {
			x.fail(err)
			x.releaseTask(t, pl)
			x.taskFinished(pl, 0, false)
			return df, false
		}
	}
	key := pl.bodyKey
	if pl.attempt > 0 && pl.body != nil {
		// Redispatch with a retained closure: the previous attempt
		// may have consumed (or stranded) the table entry; park the
		// closure under a fresh key.
		if pl.bodyKey != 0 && pl.group == 0 {
			x.bodies.drop(pl.bodyKey)
		}
		key = x.bodies.put(pl.body)
		pl.bodyKey = key
	}
	if key != 0 && w.group != pl.group {
		// The worker cannot reach the creator's closure table; it will
		// construct the body from the kind. Release the coordinator-side
		// table entry so it does not leak.
		key = 0
		if pl.group == 0 {
			x.bodies.drop(pl.bodyKey)
		}
	}
	// Mark sent BEFORE staging: the dispatch may ride any push, so from
	// here on the recovery sweep may claim the task if w dies; the
	// mu-guarded mine-check in stageDispatch decides which side re-places
	// it (never both).
	x.mu.Lock()
	pl.sent = true
	x.mu.Unlock()
	return wire.Frame{
		Type: wire.TDispatch, Task: uint64(t.ID), A: key,
		Label: pl.opts.Label, Aux: pl.kind,
	}, true
}

// finishSkipped runs the lifecycle of a task whose body may not execute
// anywhere, so dependents unblock and the program terminates.
func (x *Exec) finishSkipped(t *core.Task, pl *payload) {
	if err := x.eng.Start(t); err != nil {
		x.fail(err)
	}
	x.record(trace.Event{Kind: trace.TaskCompleted, Task: uint64(t.ID), Dst: 0})
	x.releaseTask(t, pl)
	if err := x.complete(t); err != nil {
		x.fail(err)
	}
	x.record(trace.Event{Kind: trace.TaskCommitted, Task: uint64(t.ID), Dst: 0})
	x.taskFinished(pl, 0, false)
}

// releaseTask gives back what a dispatched task holds in the coordinator's
// books: its throttle count, its charge on the worker it was placed on
// (completing that worker's drain when it was the last), its table entry.
// A retirement releases before it completes the task in the engine: the
// tasks that readies are placed right after, on the same goroutine, and must
// see the worker's load without this task.
func (x *Exec) releaseTask(t *core.Task, pl *payload) {
	x.mu.Lock()
	x.liveUser--
	var drained *workerLink
	if pl.machine > 0 {
		if w := x.workerAtLocked(pl.machine); w != nil {
			w.pendingTasks--
			x.fleetUncharge(w.m)
			if w.state == memberDraining && w.pendingTasks == 0 {
				drained = w
				x.bg.Add(1)
			}
		}
	}
	delete(x.tasks, t.ID)
	x.mu.Unlock()
	if drained != nil {
		// In a goroutine: this retirement may be running on the worker's
		// own receive loop, and the departure closes its connection.
		go x.completeDrain(drained)
	}
}

// taskFinished counts a released task's retirement and resolves its wg
// entry (exactly once).
func (x *Exec) taskFinished(pl *payload, busy time.Duration, ran bool) {
	x.statMu.Lock()
	if ran {
		x.tasksRun++
	}
	if pl.machine >= 0 && int(pl.machine) < len(x.busy) {
		x.busy[pl.machine] += busy
	}
	x.retired++
	n := x.retired
	x.statMu.Unlock()
	if h := x.opts.OnTaskDone; h != nil {
		h(n)
	}
	x.wg.Done()
}

// place picks a worker for a ready task: explicit pin first, then
// capability filtering, then least-loaded with a locality tiebreak
// (prefer the worker already holding the task's declared objects, per
// the held snapshot). Called with x.mu held.
func (x *Exec) place(pl *payload, held []int) (*workerLink, error) {
	eligible := func(w *workerLink) error {
		if w.state != memberActive {
			return fmt.Errorf("task %q cannot place on worker %d (%s): member is %v", pl.opts.Label, w.m, w.name, w.state)
		}
		if pl.opts.RequireCap != "" && !w.caps[pl.opts.RequireCap] {
			return fmt.Errorf("task %q requires capability %q, which worker %d (%s) lacks", pl.opts.Label, pl.opts.RequireCap, w.m, w.name)
		}
		if pl.kind == "" && w.group != pl.group {
			return fmt.Errorf("task %q has a closure body from another process and no kind; worker %d (%s) cannot run it", pl.opts.Label, w.m, w.name)
		}
		return nil
	}
	if m, pinned := pl.opts.PinnedMachine(); pinned {
		// Pin indexes machines; machine 0 is the coordinator, which runs
		// only the main program and inlined children.
		if m == 0 {
			return nil, fmt.Errorf("task %q pinned to machine 0, the live coordinator", pl.opts.Label)
		}
		if m > len(x.workers) {
			return nil, fmt.Errorf("task %q pinned to invalid machine %d (have %d workers)", pl.opts.Label, m, len(x.workers))
		}
		w := x.workers[m-1]
		if err := eligible(w); err != nil {
			return nil, err
		}
		return w, nil
	}
	var best *workerLink
	bestHeld := -1
	bestLoad := 0
	var lastErr error
	anyActive := false
	for _, w := range x.workers {
		if w.state == memberActive {
			anyActive = true
		}
		if err := eligible(w); err != nil {
			if w.state == memberActive {
				lastErr = err
			}
			continue
		}
		// A worker admitted after the locality snapshot was taken holds
		// nothing from the snapshot's point of view.
		h := 0
		if w.m < len(held) {
			h = held[w.m]
		}
		load := x.loadOf(w)
		if best == nil || load < bestLoad ||
			(load == bestLoad && h > bestHeld) {
			best, bestHeld, bestLoad = w, h, load
		}
	}
	if best == nil {
		if !anyActive {
			// Transient: every member is dead, draining, or departed.
			// The caller parks on the membership epoch and retries.
			return nil, fmt.Errorf("task %q: no live worker: %w", pl.opts.Label, errWorkerLost)
		}
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, fmt.Errorf("task %q: no eligible worker", pl.opts.Label)
	}
	return best, nil
}

// stageLocked stages every immediately-declared object of t on machine m
// before the task starts. Commuting declarations are fetched at Access
// time instead, like the simulated executor: another commuting task may
// legitimately hold the object right now. A non-nil car piggybacks the
// task's dispatch frame on the first push to m.
//
// Every object is checked before any is granted or pushed. The cache holds
// every committed generation, so the one thing that can be missing — an
// object still listed under a dead worker the sweep has not reached — is
// found while the attempt can be abandoned whole (the dispatch rides the
// first push, and names generations counted from the directory as it
// stands). After the check only m's own death can fail it; m is looked at
// first, because a caller woken from a wait may be staging for a worker
// that died meanwhile, its task already re-placed by the sweep and its
// objects, rightly, mid-write elsewhere. Requires x.coh.
func (x *Exec) stageLocked(t *core.Task, m int, car *dispatchCarrier) error {
	if m != 0 {
		if _, err := x.workerTarget(m); err != nil {
			return err
		}
	}
	decls := t.ImmediateDecls()
	for _, d := range decls {
		if e := x.dir.Entry(d.Object); e != nil && !d.Mode.Has(access.Commute) {
			if err := x.cacheCurrentLocked(e); err != nil {
				return err
			}
		}
	}
	for _, d := range decls {
		if d.Mode.Has(access.Commute) {
			continue
		}
		if err := x.fetchToLocked(t, d.Object, m, d.Mode.Has(access.Read), d.Mode.Has(access.Write), car); err != nil {
			return err
		}
	}
	return nil
}

// stageDispatchLocked stages t's objects on the worker car names, with the
// dispatch frame df riding the first push there when there is one. The
// frame is encoded straight into the carrier's pooled buffer, inside the
// same coherence critical section as the staging, because its pre-grant
// records name the generations the staging's write grants start. An
// errWorkerLost means w is gone or an object is still listed under a dead
// worker; either way nothing was granted or sent. Requires x.coh.
func (x *Exec) stageDispatchLocked(t *core.Task, df *wire.Frame, kindArgs []byte, car *dispatchCarrier) error {
	at := wire.PayloadAt(df)
	enc := x.appendPregrantsLocked(slices.Grow(transport.GetBuf(), at)[:at], t, kindArgs)
	car.frame, car.attached = enc, false
	if err := wire.PutFrameHeader(enc, df); err != nil {
		return fmt.Errorf("live: encode dispatch of task %d (%s): %w", t.ID, df.Label, err)
	}
	return x.stageLocked(t, car.m, car)
}

// fetchToLocked implements the object-management protocol over the wire:
// migrate on write (invalidating other copies, retaining them as delta
// shadows), replicate on read, ship nothing for write-only grants.
// A non-nil car lets the task's dispatch frame ride the first push to
// the dispatch target instead of crossing the wire on its own.
// Requires x.coh.
func (x *Exec) fetchToLocked(t *core.Task, obj access.ObjectID, m int, read, write bool, car *dispatchCarrier) error {
	d := x.dir.Entry(obj)
	if d == nil {
		err := fmt.Errorf("live: object #%d has no directory entry", obj)
		x.fail(err)
		return err
	}
	var w *workerLink // the target, when it is not the coordinator itself
	if m != 0 {
		// Refuse dead or departed targets. The check runs inside the coh
		// critical section, and the recovery sweep also runs under coh
		// after the state flips: every grant to a dying worker either
		// precedes the sweep (and is cleaned up by it) or is refused.
		var err error
		if w, err = x.workerTarget(m); err != nil {
			return err
		}
	}
	if write {
		if d.Owner != m {
			if err := x.cacheCurrentLocked(d); err != nil {
				return err
			}
			if m != 0 {
				var err error
				moved, note := 0, ""
				switch {
				case d.Holds(m):
					// The writer already holds a current replica: ownership
					// moves without any data on the wire.
					note = " (cached)"
				case read:
					err = x.pushLocked(t, d, w, car)
					moved = format.SizeOf(x.vals[obj])
				default:
					// Write-only: ownership moves, data does not (§5: the
					// task may not read the old contents).
					err = x.pushZeroLocked(t, d, w, car)
					note = " (write-only)"
				}
				if err != nil {
					return err
				}
				x.record(trace.Event{Kind: trace.ObjectMoved, Task: uint64(t.ID), Object: uint64(obj), Src: d.Owner, Dst: m,
					Bytes: moved, Label: d.Label + note})
			}
		}
		zero := m == 0 && !read && d.Owner != 0
		x.invalidateLocked(d, x.dir.GrantWrite(d, m, t))
		if zero {
			// After the invalidations: they clone the cache as the
			// outgoing generation's patch base.
			x.vals[obj] = format.ZeroLike(x.vals[obj])
		}
		if m == 0 {
			// The coordinator's store is the authoritative copy.
			x.setCacheVerLocked(d, d.Version)
		}
		return nil
	}
	if d.Holds(m) {
		return nil
	}
	if err := x.cacheCurrentLocked(d); err != nil {
		return err
	}
	if m != 0 {
		if err := x.pushLocked(t, d, w, car); err != nil {
			return err
		}
	}
	x.record(trace.Event{Kind: trace.ObjectCopied, Task: uint64(t.ID), Object: uint64(obj), Src: d.Owner, Dst: m,
		Bytes: format.SizeOf(x.vals[obj]), Label: d.Label})
	x.dir.GrantRead(d, m)
	return nil
}

// setCacheVerLocked records that the coordinator cache holds d at
// generation ver, and forgets the write grants at or below it: the history
// names only the writers that have not released yet. Requires x.coh.
func (x *Exec) setCacheVerLocked(d *coherence.Entry, ver uint64) {
	x.cacheVer[d.Object] = ver
	x.dir.TrimHistory(d, ver)
}

// cacheCurrentLocked checks the invariant every transfer out of the cache
// rests on: committed ⇒ cached. A task reaches d only after every earlier
// writer released it, and a release carries the writer's bytes. Two things
// can make it otherwise: the owner died holding a write, and the sweep
// that rolls the object back has not run yet (errWorkerLost: the caller
// waits for it); or a live worker released a write without writing it
// back — a protocol error, not something to fetch. Requires x.coh.
func (x *Exec) cacheCurrentLocked(d *coherence.Entry) error {
	if d.Owner == 0 || x.cacheVer[d.Object] == d.Version {
		return nil
	}
	if _, err := x.workerTarget(d.Owner); err != nil {
		return err
	}
	err := fmt.Errorf("live: object #%d (%s): worker %d released generation %d without writing it back (cache holds %d)",
		d.Object, d.Label, d.Owner, d.Version, x.cacheVer[d.Object])
	x.failFatal(err)
	return err
}

// applyWritebacksLocked installs the write-back records of a frame task t
// sent from worker w into the coordinator cache, each advancing the cached
// generation to the one its write grant started. A record is believed only
// if the directory says so: the generation must be the object's current
// one, granted to t on w, and a patch must be against the generation the
// cache holds. Anything else ends the run: every later task and the
// recovery sweep read the cache. Requires x.coh.
func (x *Exec) applyWritebacksLocked(w *workerLink, t *core.Task, recs []byte) error {
	for len(recs) > 0 {
		wb, rest, _ := wire.NextWriteback(recs) // the section was validated at decode
		recs = rest
		obj := access.ObjectID(wb.Obj)
		d := x.dir.Entry(obj)
		have := x.cacheVer[obj]
		var err error
		switch {
		case d == nil:
			err = fmt.Errorf("no such object")
		case d.Owner != w.m || wb.Gen != d.Version || x.dir.Writer(d, wb.Gen) != t:
			err = fmt.Errorf("generation %d was not granted to this task here (object is at %d, owned by machine %d)", wb.Gen, d.Version, d.Owner)
		case wb.Patch && wb.Base != have:
			err = fmt.Errorf("patch base %d, cache holds %d", wb.Base, have)
		}
		var nv any
		var words int
		if err == nil {
			// The record lands in the cache's own storage: nothing else
			// reads it, since invalidateLocked gave the holders of the
			// generation it replaces a frozen copy of their own, and the
			// writer's grant excluded every task that could view it here.
			nv, words, err = coherence.Unpack(x.vals[obj], wb.Payload, wb.Patch, format.ByteOrder(wb.Order), x.opts.Format)
		}
		if err != nil {
			err = fmt.Errorf("live: write-back of object #%d by task %d on worker %d (%s): %w", obj, t.ID, w.m, w.name, err)
			x.failFatal(err)
			return err
		}
		x.noteConverted(obj, w.m, 0, words)
		x.vals[obj] = nv
		saved := format.WireSize(nv) - len(wb.Payload)
		x.record(trace.Event{Kind: trace.MessageSent, Task: uint64(t.ID), Object: wb.Obj, Src: w.m, Dst: 0,
			Bytes: len(wb.Payload), Label: "object-writeback"})
		if wb.Patch {
			x.record(trace.Event{Kind: trace.ObjectPatched, Task: uint64(t.ID), Object: wb.Obj, Src: w.m, Dst: 0,
				Bytes: len(wb.Payload), Saved: saved, Label: d.Label})
		}
		x.countTransfer(wb.Patch, len(wb.Payload), saved)
		x.setCacheVerLocked(d, wb.Gen)
	}
	return nil
}

// countTransfer charges one object transfer to the delta ledger.
func (x *Exec) countTransfer(isPatch bool, bytes, saved int) {
	x.statMu.Lock()
	if isPatch {
		x.dstats.DeltaTransfers++
		x.dstats.DeltaBytes += int64(bytes)
		x.dstats.SavedBytes += int64(saved)
	} else {
		x.dstats.FullTransfers++
		x.dstats.FullBytes += int64(bytes)
	}
	x.statMu.Unlock()
}

func (x *Exec) noteConverted(obj access.ObjectID, src, dst, words int) {
	if words <= 0 {
		return
	}
	x.statMu.Lock()
	x.convWords += words
	x.statMu.Unlock()
	x.record(trace.Event{Kind: trace.Converted, Object: uint64(obj), Src: src, Dst: dst, Bytes: words})
}

// pushLocked ships the current value of d to worker w — as a patch
// against the image of the worker's stale copy when the codec finds the
// diff worthwhile, as a full image otherwise — encoding it once, straight
// into the frame buffer. Requires x.coh with the cache current.
func (x *Exec) pushLocked(t *core.Task, d *coherence.Entry, w *workerLink, car *dispatchCarrier) error {
	obj, m := d.Object, w.m
	val := x.vals[obj]
	if val == nil {
		err := fmt.Errorf("live: object #%d missing from coordinator cache", obj)
		x.failFatal(err)
		return err
	}
	f := &wire.Frame{Type: wire.TObjImage, Obj: uint64(obj), A: x.cacheVer[obj], B: uint64(w.fmt)}
	car.attachTo(f, m)
	at := wire.PayloadAt(f)
	buf := slices.Grow(transport.GetBuf(), at+format.SizeOf(val))[:at]
	buf, isPatch, words, err := coherence.AppendPack(buf, x.stale[staleKey{m, obj}], val, x.opts.Format, w.fmt)
	if err != nil {
		transport.PutBuf(buf)
		err = fmt.Errorf("live: push of object #%d: %w", obj, err)
		x.failFatal(err)
		return err
	}
	x.noteConverted(obj, 0, m, words)
	payload := len(buf) - at
	label, saved := "object", 0
	if isPatch {
		f.Type = wire.TObjPatch
		f.C, _ = d.ShadowGen(m)
		label, saved = "object-delta", format.WireSize(val)-payload
	}
	if err := wire.PutFrameHeader(buf, f); err != nil {
		transport.PutBuf(buf)
		return w.encodeFailed(f, err)
	}
	delete(x.stale, staleKey{m, obj})
	if err := w.ship(buf, f.Type); err != nil {
		return err
	}
	x.record(trace.Event{Kind: trace.MessageSent, Task: uint64(t.ID), Object: uint64(obj), Src: 0, Dst: m, Bytes: payload, Label: label})
	if isPatch {
		x.record(trace.Event{Kind: trace.ObjectPatched, Task: uint64(t.ID), Object: uint64(obj), Src: 0, Dst: m, Bytes: payload, Saved: saved})
	}
	x.countTransfer(isPatch, payload, saved)
	return nil
}

// pushZeroLocked grants worker w a fresh zeroed buffer for d: a
// write-only task may not read the old contents, so no data moves.
func (x *Exec) pushZeroLocked(t *core.Task, d *coherence.Entry, w *workerLink, car *dispatchCarrier) error {
	m := w.m
	kind, n := format.KindOf(x.vals[d.Object]), format.Len(x.vals[d.Object])
	delete(x.stale, staleKey{m, d.Object})
	zf := &wire.Frame{Type: wire.TObjZero, Obj: uint64(d.Object),
		A: d.Version, B: uint64(kind), C: uint64(n)}
	car.attachTo(zf, m)
	if err := w.send(zf); err != nil {
		return err
	}
	x.record(trace.Event{Kind: trace.MessageSent, Task: uint64(t.ID), Object: uint64(d.Object), Src: 0, Dst: m, Bytes: 0, Label: "ownership"})
	return nil
}

// invalidateLocked discards the copies of d a write grant just froze:
// a live worker keeps its stale bytes, so the coordinator keeps a clone of
// that generation too and later re-fetches can travel as patches.
// Requires x.coh with the cache still holding the outgoing generation.
func (x *Exec) invalidateLocked(d *coherence.Entry, holders []int) {
	obj := d.Object
	var frozen any // the outgoing generation, cloned once for all holders
	for _, c := range holders {
		var w *workerLink
		if c != 0 {
			w, _ = x.workerTarget(c)
		}
		label := d.Label
		if w == nil {
			// The coordinator's cache stays as the patch base for its own
			// re-fetches (cacheVer tracks which generation it froze at); a
			// dead or departed holder has nothing to invalidate and no
			// stale copy worth tracking (the sweep drops its state).
			x.dir.DropShadow(d, c)
			if c != 0 {
				label += " (member gone)"
			}
		} else {
			if frozen == nil {
				frozen = format.Clone(x.vals[obj])
			}
			x.stale[staleKey{c, obj}] = frozen
			w.send(&wire.Frame{Type: wire.TInvalidate, Obj: uint64(obj), A: d.Version - 1})
		}
		x.record(trace.Event{Kind: trace.ObjectInvalidated, Object: uint64(obj), Src: c, Dst: c, Label: label})
	}
}

// costBits round-trips a float64 cost through a frame scalar.
func costBits(c float64) uint64     { return math.Float64bits(c) }
func costFromBits(b uint64) float64 { return math.Float64frombits(b) }

var _ rt.Exec = (*Exec)(nil)
