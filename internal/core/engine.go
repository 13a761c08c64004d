// Package core implements the Jade dependency engine: the dynamic machinery
// that turns access specifications into deterministic parallel execution.
//
// The engine is a pure, event-driven data structure. It knows nothing about
// goroutines, machines, messages or time; executors (internal/exec/...)
// supply blocking and scheduling on top of it. Mutating operations are
// synchronized per shared object — each object queue carries its own lock —
// and notify interested parties through callbacks fired after every lock is
// released.
//
// # Semantics
//
// Each shared object has a queue of access entries ordered by the serial
// sequence numbers of the declaring tasks (package seq; note the
// ancestor-residual rule: an ancestor's entry orders after all entries of
// its descendants). An entry is "enabled" for an immediate mode m when no
// earlier entry in the queue holds rights that conflict with m. A task may
// begin when every immediate declaration in its specification is enabled; a
// deferred declaration reserves the queue position but gates nothing until
// the task converts it with a with-cont construct. Completing a task, or
// retracting rights with no_rd/no_wr, removes or shrinks entries and wakes
// any waiters that become enabled.
//
// This realizes the paper's execution model (§2, §3.3, §4.2): conflicting
// tasks execute in the original serial order, non-conflicting tasks execute
// concurrently, and a task never waits on a task later in serial order —
// which is also why suspending task creators or inlining children can never
// deadlock.
//
// # Locking
//
// The engine has no global lock (see DESIGN.md §4.6). Synchronization is
// layered so that operations on disjoint objects never serialize:
//
//  1. A striped shard table maps ObjectID → queue; shard locks are held
//     only for the map lookup, never while any other lock is taken.
//  2. Each object queue has its own mutex guarding the queue order, the
//     entry modes and checkouts of its entries, the summary of the rights
//     queued on it, its waiter lists, and the commute lock. Multi-object
//     operations — Create's covering checks and Complete's release
//     fan-out — acquire all involved queue locks in ascending ObjectID
//     order (the canonical order; deadlock-free because every multi-lock
//     follows it).
//  3. Each task carries a leaf mutex guarding its entry table. It nests
//     strictly inside queue locks; no code path takes a queue lock while
//     holding a task mutex.
//
// # Cost
//
// An operation costs its task's declarations, not the queues behind them:
// the queue summary decides an enable check or a Depend scan without
// touching the entries whenever nothing queued (the entry itself and its
// task's ancestors aside, which sort after it) holds a conflicting right.
// Only a real conflict somewhere in the queue pays for a scan
// (Stats.EntriesScanned).
//
// A task's access specification lives in its entries' mode fields (guarded
// by the owning queues' locks); there is no separate spec structure to keep
// in sync. Task lifecycle state (state, start-gate count, live children)
// and all engine counters are atomics, so wakeups running under one
// queue's lock can update tasks gated on several queues without ordering
// constraints. Wakeup callbacks and hooks fire strictly after all locks
// are released.
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/seq"
)

// TaskID identifies a task within one engine. IDs increase in creation
// order; the root task has ID 1.
type TaskID uint64

// State is a task's lifecycle state.
type State int32

const (
	// Waiting means the task exists but some immediate declaration is not
	// yet enabled.
	Waiting State = iota
	// Ready means every immediate declaration is enabled; the executor may
	// run the task at any time.
	Ready
	// Running means the executor has started the task body.
	Running
	// Done means the task body has completed and its entries are removed.
	Done
)

func (s State) String() string {
	switch s {
	case Waiting:
		return "waiting"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Done:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Task is the engine's record of one Jade task. Executors attach their own
// state through Payload and must treat all other fields as read-only.
// Engine methods on a task may only be called from the task's own executor
// thread; the concurrent-safety guarantees are about operations of
// *different* tasks running in parallel.
type Task struct {
	// ID is the engine-unique task identifier.
	ID TaskID
	// Seq is the task's serial sequence number.
	Seq seq.Seq
	// Decls is the task's initial access specification, as declared.
	Decls []access.Decl
	// Payload is executor-owned attachment (never touched by the engine).
	Payload any

	parent *Task
	engine *Engine

	// state, gates and children are atomic: wakeups running under
	// arbitrary queue locks update them cross-thread.
	state    atomic.Int32
	gates    atomic.Int32 // unsatisfied start gates
	children atomic.Int32 // live (not Done) children

	// createdAt and readyAt are engine-clock stamps (see Engine.SetClock)
	// of the Create call and the Waiting→Ready transition. readyAt is
	// atomic: the enabling wake may run under another task's queue lock on
	// another thread.
	createdAt int64
	readyAt   atomic.Int64

	// mu is a leaf lock guarding the entries slice (the table itself; entry
	// contents are guarded by the owning object queue's lock). It nests
	// inside queue locks, never the other way around.
	mu         sync.Mutex
	entries    []*entry
	entriesBuf [4]*entry // inline backing for entries (typical task: ≤4 objects)

	nextChild uint32 // touched only by the task's own thread

	// immOnce/immDecls memoize ImmediateDecls: Decls is immutable after
	// Create, and executors ask several times per dispatch.
	immOnce  sync.Once
	immDecls []access.Decl
}

// Parent returns the task's parent (nil for the root task).
func (t *Task) Parent() *Task { return t.parent }

// CreatedAt returns the engine-clock stamp of the task's creation (its
// enqueue time). Zero unless the executor installed a clock (SetClock).
func (t *Task) CreatedAt() int64 { return t.createdAt }

// ReadyAt returns the engine-clock stamp of the task's Waiting→Ready
// transition (its enable time: the moment every start gate opened). Zero
// until the task becomes Ready, and always zero without a clock.
func (t *Task) ReadyAt() int64 { return t.readyAt.Load() }

// State returns the task's current lifecycle state.
func (t *Task) State() State { return State(t.state.Load()) }

// Mode returns the rights t currently holds on obj. The value is exact
// when the engine is quiescent or the caller holds obj's queue lock;
// otherwise it is a best-effort snapshot.
func (t *Task) Mode(obj access.ObjectID) access.Mode {
	if en := t.findEntry(obj); en != nil {
		return en.mode
	}
	return 0
}

// findEntry returns t's entry on obj (nil if none).
func (t *Task) findEntry(obj access.ObjectID) *entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, en := range t.entries {
		if en.obj == obj {
			return en
		}
	}
	return nil
}

// addEntry appends a new entry to t's table.
func (t *Task) addEntry(en *entry) {
	t.mu.Lock()
	if t.entries == nil {
		t.entries = t.entriesBuf[:0]
	}
	t.entries = append(t.entries, en)
	t.mu.Unlock()
}

// dropEntry removes en from t's table.
func (t *Task) dropEntry(en *entry) {
	t.mu.Lock()
	for i, x := range t.entries {
		if x == en {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// ImmediateDecls returns the objects and modes the task must hold to start:
// the immediate portion of its initial declarations, merged per object and
// sorted by object ID. Executors use this to plan data movement before
// running the task. The returned slice is memoized and shared — callers
// must not modify it.
func (t *Task) ImmediateDecls() []access.Decl {
	t.immOnce.Do(func() {
		// Merge per object with an insertion sort: declaration lists are
		// short (typically ≤4 objects), so this beats a map + sort.Slice
		// and allocates exactly once.
		out := make([]access.Decl, 0, len(t.Decls))
		for _, d := range t.Decls {
			i := sort.Search(len(out), func(i int) bool { return out[i].Object >= d.Object })
			if i < len(out) && out[i].Object == d.Object {
				out[i].Mode |= d.Mode
				continue
			}
			out = append(out, access.Decl{})
			copy(out[i+1:], out[i:])
			out[i] = d
		}
		w := 0
		for _, d := range out {
			if m := d.Mode.Immediate(); m != 0 {
				out[w] = access.Decl{Object: d.Object, Mode: m}
				w++
			}
		}
		t.immDecls = out[:w]
	})
	return t.immDecls
}

// numCheckoutSlots is the number of distinct immediate checkout modes
// (combinations of Read, Write and Commute), densely indexed by cidx.
const numCheckoutSlots = 8

// cidx maps an immediate access mode to its dense checkout-counter index.
func cidx(m access.Mode) int {
	return int(m&(access.Read|access.Write)) | int((m&access.Commute)>>2)
}

// checkoutMode is the inverse of cidx.
func checkoutMode(i int) access.Mode {
	return access.Mode(i&3) | access.Mode(i&4)<<2
}

// entry is one task's rights on one object, positioned in the object queue.
// mode and checkouts are guarded by the owning queue's lock.
type entry struct {
	task *Task
	obj  access.ObjectID
	mode access.Mode
	// checkouts counts live data views per immediate mode (indexed by
	// cidx), used to detect a parent that creates a conflicting child
	// while still holding a view.
	checkouts [numCheckoutSlots]int32
}

// waitKind distinguishes why a waiter is registered.
type waitKind int

const (
	waitStart   waitKind = iota // task start gate
	waitAccess                  // blocked data access of a running task
	waitConvert                 // blocked with-cont conversion
)

// waiter is a pending wakeup for when e becomes enabled for mode. Start
// gates update the task's atomic gate count directly; wake (the other two
// kinds) runs after every lock is released. Checkout and commute-lock
// updates for granted accesses happen under the queue lock, never in
// callbacks.
type waiter struct {
	e    *entry
	mode access.Mode
	kind waitKind
	wake func() // waitAccess/waitConvert: called after unlock
}

// objQueue is the per-object ordered queue of entries plus its waiters.
// Every field below mu is guarded by mu. cmLock serializes the actual data
// accesses of commuting tasks (§4.3): tasks whose declarations commute may
// start in any order, but only one at a time may hold a view of the object.
type objQueue struct {
	id access.ObjectID

	mu        sync.Mutex
	entries   []*entry // sorted by task.Seq queue order
	waiters   []*waiter
	cmLock    *entry
	cmWaiters []*waiter

	// The summary of the rights queued here: how many entries hold a read
	// right, a write right (immediate or deferred, either way) and a
	// commute right. Invariant: each equals a recount over entries. Every
	// change of an entry's mode or membership goes through insert, remove
	// or setMode, which keep it.
	readers, writers, commuters int32
	// nested records that an entry was once inserted ahead of a queued one
	// other than the root's (a task created children while later tasks were
	// already queued): queue order is no longer creation order, so Depend
	// scans may not stop at the nearest writer. Never reset.
	nested bool
}

// tally adds d to the summary count of every right class m holds.
func (q *objQueue) tally(m access.Mode, d int32) {
	if m.HasAny(access.AnyRead) {
		q.readers += d
	}
	if m.HasAny(access.AnyWrite) {
		q.writers += d
	}
	if m.Has(access.Commute) {
		q.commuters += d
	}
}

// setMode changes the rights of e, an entry of q. Caller holds q.mu.
func (q *objQueue) setMode(e *entry, m access.Mode) {
	q.tally(e.mode, -1)
	q.tally(m, +1)
	e.mode = m
}

// insert places e at its serial position. Caller holds q.mu.
func (q *objQueue) insert(e *entry) {
	// The root's entry sorts after everything, so a new entry normally
	// goes last or just ahead of it; anything else is a nested creator.
	i := len(q.entries)
	if i > 0 && q.entries[i-1].task.parent == nil {
		i--
	}
	if i > 0 && e.task.Seq.Less(q.entries[i-1].task.Seq) {
		i = sort.Search(i, func(i int) bool {
			return e.task.Seq.Less(q.entries[i].task.Seq)
		})
		q.nested = true
	}
	q.entries = append(q.entries, nil)
	copy(q.entries[i+1:], q.entries[i:])
	q.entries[i] = e
	q.tally(e.mode, +1)
}

// shiftHeadAbove is the queue length beyond which remove may advance the
// slice's head (giving up that slot of capacity) instead of moving the tail.
const shiftHeadAbove = 8

// remove deletes e from the queue. Caller holds q.mu.
func (q *objQueue) remove(e *entry) {
	for i, x := range q.entries {
		if x != e {
			continue
		}
		// A long queue closes the gap from the shorter side: tasks finish
		// roughly in queue order, so the entry is near the head and moving
		// what is behind it would touch the whole backlog. (A short one
		// keeps its head where it is, and with it its capacity.)
		if n := len(q.entries); n > shiftHeadAbove && i < n/2 {
			copy(q.entries[1:i+1], q.entries[:i])
			q.entries[0] = nil
			q.entries = q.entries[1:]
		} else {
			copy(q.entries[i:], q.entries[i+1:])
			q.entries[n-1] = nil
			q.entries = q.entries[:n-1]
		}
		q.tally(e.mode, -1)
		return
	}
}

// entryOf returns t's entry in q (nil if none). The root's needs no table:
// the root sorts after every other task, so its entry is the queue's last.
// Caller holds q.mu.
func (q *objQueue) entryOf(t *Task) *entry {
	if t.parent != nil {
		return t.findEntry(q.id)
	}
	if n := len(q.entries); n > 0 && q.entries[n-1].task == t {
		return q.entries[n-1]
	}
	return nil
}

// othersConflict asks the summary whether any entry of q other than e and
// the entries of e's task's ancestors — which sort after e, so never order
// before it — holds rights that conflict with a later m. False means none
// does, decided without touching the entries; true means only a scan can
// tell. Caller holds q.mu (ancestors' tables are read under their leaf
// locks; the modes found there are q's to read).
func (q *objQueue) othersConflict(e *entry, m access.Mode) bool {
	// The classes of earlier right that conflict with m (Mode.ConflictsWith):
	// writers with everything, readers with wr and cm, commuters with rd
	// and wr.
	var r, w, c int32
	if m.Immediate() != 0 {
		w = q.writers
	}
	if m.HasAny(access.Write | access.Commute) {
		r = q.readers
	}
	if m.HasAny(access.ReadWrite) {
		c = q.commuters
	}
	if r|w|c == 0 {
		return false
	}
	for t := e.task; ; e = q.entryOf(t) {
		if e != nil {
			if r > 0 && e.mode.HasAny(access.AnyRead) {
				r--
			}
			if w > 0 && e.mode.HasAny(access.AnyWrite) {
				w--
			}
			if c > 0 && e.mode.Has(access.Commute) {
				c--
			}
			if r|w|c == 0 {
				return false
			}
		}
		if t = t.parent; t == nil {
			return true
		}
	}
}

// scanEnabled reports whether e is enabled for immediate mode m — no
// earlier entry conflicts with m — and how many entries it visited to tell.
// Caller holds q.mu.
func (q *objQueue) scanEnabled(e *entry, m access.Mode) (ok bool, visited int) {
	for i, x := range q.entries {
		if x == e {
			return true, i
		}
		if x.mode.ConflictsWith(m) {
			return false, i + 1
		}
	}
	// Entry not present (already removed): treat as enabled; callers
	// guarantee e belongs to q while rights are held.
	return true, len(q.entries)
}

// scan is scanEnabled, counted in Stats.EntriesScanned. Caller holds q.mu.
func (e *Engine) scan(q *objQueue, en *entry, m access.Mode) bool {
	ok, visited := q.scanEnabled(en, m)
	if visited > 0 {
		e.entriesScanned.Add(uint64(visited))
	}
	return ok
}

// enabled reports whether en is enabled for immediate mode m. The summary
// answers when nothing queued can conflict; otherwise the queue is scanned.
// Caller holds q.mu.
func (e *Engine) enabled(q *objQueue, en *entry, m access.Mode) bool {
	return !q.othersConflict(en, m) || e.scan(q, en, m)
}

// appendDeps appends the dynamic data dependences of en, the entry of a
// task being created, on q's object: the earlier entries whose rights
// conflict with eventual, the rights en will hold once its deferred
// declarations convert. Walking back from en, it stops after the nearest
// entry holding a write right: everything before that one conflicted with
// it when it was created and so already reaches en through it — the
// covering set, the edges the paper's Figure 4 draws. That argument needs
// queue order to be creation order, so a nested queue gets every edge.
// Edges are appended in queue order. Caller holds q.mu.
func (e *Engine) appendDeps(deps []Dep, q *objQueue, en *entry, eventual access.Mode) []Dep {
	i := len(q.entries) - 1
	for i >= 0 && q.entries[i] != en { // at most two steps unless q is nested
		i--
	}
	first := len(deps)
	j := i - 1
	for ; j >= 0; j-- {
		prior := q.entries[j]
		if !prior.mode.ConflictsWith(eventual) {
			continue
		}
		if deps == nil {
			deps = make([]Dep, 0, 4) // the batch's one allocation, typically
		}
		deps = append(deps, Dep{Earlier: prior.task, Object: q.id})
		if !q.nested && prior.mode.HasAny(access.AnyWrite) {
			j--
			break
		}
	}
	if visited := i - 1 - j; visited > 0 {
		e.entriesScanned.Add(uint64(visited))
	}
	slices.Reverse(deps[first:])
	return deps
}

// Hooks are the engine's outbound notifications. They are fired after all
// engine locks are released, in the order the events occurred within each
// object queue. Hook implementations may call back into the engine.
type Hooks struct {
	// Ready fires when a task's start gates are all enabled. It fires
	// exactly once per task, possibly during the Create call that made it.
	Ready func(*Task)
	// Violation fires when a task performs an undeclared access or breaks
	// the hierarchy covering rule. The same error is also returned from the
	// offending call; the hook exists so executors can abort the program.
	Violation func(*Task, error)
	// Depend fires once per Create that detects dynamic data dependences,
	// with all of them: each Dep names an earlier task still holding rights
	// on an object that conflict with the new task's declaration on it. This
	// is the paper's dynamic task graph (Figure 4), and like the figure it
	// is the covering set: per object, the conflicting earlier tasks back to
	// and including the nearest writer, through which the ones before it are
	// already reached.
	Depend func(later *Task, deps []Dep)
}

// Dep is one edge of the dynamic task graph into a task being created:
// Earlier holds rights on Object that conflict with the new task's.
type Dep struct {
	Earlier *Task
	Object  access.ObjectID
}

// Stats are cumulative engine counters (snapshot via Engine.Stats).
type Stats struct {
	TasksCreated   uint64
	TasksCompleted uint64
	MaxQueueLen    int
	Waits          uint64 // times anything had to wait (start gates + accesses)
	Violations     uint64
	// LockAcquisitions counts object-queue lock acquisitions — the
	// engine's synchronization traffic. With the sharded engine this
	// scales with useful work, not with a single contended mutex.
	LockAcquisitions uint64
	// BlockedWakes counts blocked waiters woken (start gates opened,
	// blocked accesses granted, conversions unblocked, commute-lock
	// handoffs) — the engine's cross-task signalling traffic.
	BlockedWakes uint64
	// EntriesScanned counts queue entries visited by enable checks and
	// Depend scans — the part of an operation's cost that grows with the
	// queue rather than with the task's declarations. A check the queue
	// summary decides visits none.
	EntriesScanned uint64
}

// queueShards is the stripe count of the ObjectID → queue table. Power of
// two so the modulo compiles to a mask.
const queueShards = 64

// shard is one stripe of the queue table. The lock guards only the map;
// it is never held while a queue or task lock is taken.
type shard struct {
	mu     sync.RWMutex
	queues map[access.ObjectID]*objQueue
}

// Engine is the Jade dependency engine. Create one per program run.
type Engine struct {
	hooks  Hooks
	root   *Task
	nextID atomic.Uint64
	live   atomic.Int64

	// clock, when set, stamps task creation and enablement times (the
	// profiler's enqueue/enable instants). It must be cheap, monotonic and
	// callable from any thread: it runs inside Create and under object
	// queue locks during wakeups.
	clock func() int64

	shards [queueShards]shard

	// Counters (see Stats).
	tasksCreated     atomic.Uint64
	tasksCompleted   atomic.Uint64
	maxQueueLen      atomic.Int64
	waits            atomic.Uint64
	violations       atomic.Uint64
	lockAcquisitions atomic.Uint64
	blockedWakes     atomic.Uint64
	entriesScanned   atomic.Uint64
}

// New returns an engine with a root task in Running state. The root task
// models the main program: it implicitly acquires full rights to any object
// it touches (its residual rights order after all other tasks, so the main
// program waits for conflicting tasks exactly as the serial semantics
// requires).
func New(hooks Hooks) *Engine {
	e := &Engine{hooks: hooks}
	for i := range e.shards {
		e.shards[i].queues = make(map[access.ObjectID]*objQueue)
	}
	e.root = &Task{
		ID:     1,
		Seq:    seq.Root(),
		engine: e,
	}
	e.root.state.Store(int32(Running))
	e.nextID.Store(2)
	e.live.Store(1)
	return e
}

// Root returns the root (main program) task.
func (e *Engine) Root() *Task { return e.root }

// SetClock installs the time source stamping Task.CreatedAt and
// Task.ReadyAt. Executors call it once before Run; nil (the default) leaves
// all stamps zero. fn is called with no engine locks the caller controls,
// so it must not call back into the engine.
func (e *Engine) SetClock(fn func() int64) { e.clock = fn }

// now returns the current clock stamp (0 without a clock).
func (e *Engine) now() int64 {
	if e.clock == nil {
		return 0
	}
	return e.clock()
}

// Stats returns a snapshot of the engine counters. Individual counters are
// exact; the snapshot as a whole is not an atomic cut across them.
func (e *Engine) Stats() Stats {
	return Stats{
		TasksCreated:     e.tasksCreated.Load(),
		TasksCompleted:   e.tasksCompleted.Load(),
		MaxQueueLen:      int(e.maxQueueLen.Load()),
		Waits:            e.waits.Load(),
		Violations:       e.violations.Load(),
		LockAcquisitions: e.lockAcquisitions.Load(),
		BlockedWakes:     e.blockedWakes.Load(),
		EntriesScanned:   e.entriesScanned.Load(),
	}
}

// Live returns the number of tasks that are not Done (including the root).
func (e *Engine) Live() int { return int(e.live.Load()) }

// shardOf returns the stripe holding obj's queue.
func (e *Engine) shardOf(obj access.ObjectID) *shard {
	return &e.shards[uint64(obj)%queueShards]
}

// queue returns (creating if needed) the queue for obj. Only the shard lock
// is held inside; the caller takes the queue lock itself.
func (e *Engine) queue(obj access.ObjectID) *objQueue {
	s := e.shardOf(obj)
	s.mu.RLock()
	q := s.queues[obj]
	s.mu.RUnlock()
	if q != nil {
		return q
	}
	s.mu.Lock()
	q = s.queues[obj]
	if q == nil {
		q = &objQueue{id: obj}
		s.queues[obj] = q
	}
	s.mu.Unlock()
	return q
}

// lockQueue acquires q's lock, counting the acquisition.
func (e *Engine) lockQueue(q *objQueue) {
	q.mu.Lock()
	e.lockAcquisitions.Add(1)
}

// insertQueueSorted adds obj's queue to qs keeping ascending unique
// ObjectID order — the canonical lock-acquisition order for multi-object
// operations. qs is typically backed by a caller stack buffer.
func (e *Engine) insertQueueSorted(qs []*objQueue, obj access.ObjectID) []*objQueue {
	i := 0
	for ; i < len(qs); i++ {
		if qs[i].id == obj {
			return qs
		}
		if qs[i].id > obj {
			break
		}
	}
	qs = append(qs, nil)
	copy(qs[i+1:], qs[i:])
	qs[i] = e.queue(obj)
	return qs
}

// queueIn returns the queue for obj from qs (which must contain it).
func queueIn(qs []*objQueue, obj access.ObjectID) *objQueue {
	for _, q := range qs {
		if q.id == obj {
			return q
		}
	}
	return nil
}

// lockAll acquires the given queue locks; qs must be in canonical order
// (ascending ObjectID), as produced by insertQueueSorted.
func (e *Engine) lockAll(qs []*objQueue) {
	for _, q := range qs {
		e.lockQueue(q)
	}
}

// unlockAll releases locks taken by lockAll.
func (e *Engine) unlockAll(qs []*objQueue) {
	for i := len(qs) - 1; i >= 0; i-- {
		qs[i].mu.Unlock()
	}
}

// noteQueueLen folds a new queue length into the MaxQueueLen counter.
func (e *Engine) noteQueueLen(n int) {
	for {
		old := e.maxQueueLen.Load()
		if int64(n) <= old || e.maxQueueLen.CompareAndSwap(old, int64(n)) {
			return
		}
	}
}

// RegisterObject records that task t allocated obj and grants t implicit
// immediate read/write rights on it: a freshly allocated object is private
// to its creator until the creator passes it to child tasks.
func (e *Engine) RegisterObject(t *Task, obj access.ObjectID) {
	q := e.queue(obj)
	e.lockQueue(q)
	e.declare(t, q, access.ReadWrite)
	q.mu.Unlock()
}

// declare unions mode bits into t's entry on q's object, inserting the
// entry if absent. Caller holds q's lock; t.mu is taken internally for the
// entry-table update.
func (e *Engine) declare(t *Task, q *objQueue, m access.Mode) *entry {
	if en := q.entryOf(t); en != nil {
		if en.mode|m != en.mode {
			q.setMode(en, en.mode|m)
		}
		return en
	}
	en := &entry{task: t, obj: q.id, mode: m}
	t.addEntry(en)
	q.insert(en)
	e.noteQueueLen(len(q.entries))
	return en
}

// violation records a violation and returns the error; the hook fires via
// the returned fire list, which callers run after releasing all locks.
func (e *Engine) violation(t *Task, format string, args ...any) (error, []func()) {
	err := fmt.Errorf(format, args...)
	e.violations.Add(1)
	var fires []func()
	if e.hooks.Violation != nil {
		h := e.hooks.Violation
		fires = append(fires, func() { h(t, err) })
	}
	return err, fires
}

// Create makes a child task of parent with the given access declarations
// and executor payload (attached before any hook can observe the task).
// It enforces the hierarchy covering rule (paper §4.4): every declared right
// must be covered by the parent's current specification (the root task is
// exempt — it implicitly owns everything it touches). It also rejects
// creation while the parent holds a live data view that conflicts with the
// child's declarations, since the parent's subsequent uses of that view
// would race with the child.
//
// Create locks every declared object's queue in canonical order for the
// duration of the checks and insertions, so the new task's entries appear
// atomically across all its objects.
//
// If the new task has no blocked immediate declarations the Ready hook fires
// before Create returns.
func (e *Engine) Create(parent *Task, decls []access.Decl, payload any) (*Task, error) {
	if parent.engine != e {
		return nil, fmt.Errorf("task %d belongs to a different engine", parent.ID)
	}
	if s := parent.State(); s != Running {
		err, fires := e.violation(parent, "task %d (%v) created a child while %v; only running tasks may create tasks",
			parent.ID, parent.Seq, s)
		runAll(fires)
		return nil, err
	}
	var qbuf [8]*objQueue
	qs := qbuf[:0]
	for _, d := range decls {
		qs = e.insertQueueSorted(qs, d.Object)
	}
	e.lockAll(qs)

	// Root implicitly owns what it touches.
	if parent == e.root {
		for _, q := range qs {
			e.declare(parent, q, access.ReadWrite|access.DeferredReadWrite)
		}
	}
	// Hierarchy covering rule: the parent's current rights (its entry
	// modes, which we can read because every relevant queue is locked)
	// must cover the child's declarations.
	for i, d := range decls {
		dup := false
		for j := 0; j < i; j++ {
			if decls[j].Object == d.Object {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		need := d.Mode
		for j := i + 1; j < len(decls); j++ {
			if decls[j].Object == d.Object {
				need |= decls[j].Mode
			}
		}
		var have access.Mode
		pe := queueIn(qs, d.Object).entryOf(parent)
		if pe != nil {
			have = pe.mode
		}
		if !have.Covers(need) {
			verr, fires := e.violation(parent,
				"task %d (%v): access violation: child declares %v on object #%d but parent holds only %v",
				parent.ID, parent.Seq, need, d.Object, have)
			e.unlockAll(qs)
			runAll(fires)
			return nil, verr
		}
		// Live conflicting views? (checkouts are guarded by the queue
		// locks, all of which are held.)
		if pe == nil {
			continue
		}
		for ci, n := range pe.checkouts {
			m := checkoutMode(ci)
			if n > 0 && (m.ConflictsWith(need) || need.ConflictsWith(m)) {
				verr, fires := e.violation(parent,
					"task %d (%v) creates a child declaring %v on object #%d while holding a live %v view of it; release the view (EndAccess) first",
					parent.ID, parent.Seq, need, d.Object, m)
				e.unlockAll(qs)
				runAll(fires)
				return nil, verr
			}
		}
	}

	parent.nextChild++
	t := &Task{
		ID:        TaskID(e.nextID.Add(1) - 1),
		Seq:       parent.Seq.Child(parent.nextChild),
		Decls:     append([]access.Decl(nil), decls...),
		Payload:   payload,
		parent:    parent,
		engine:    e,
		createdAt: e.now(),
	}
	e.tasksCreated.Add(1)
	e.live.Add(1)
	parent.children.Add(1)

	for _, d := range decls {
		e.declare(t, queueIn(qs, d.Object), d.Mode)
	}

	// Per entry: report the dynamic data dependences for the task graph —
	// earlier entries whose rights conflict with the new task's eventual
	// accesses — and count start gates, each (object, immediate mode) not
	// yet enabled. An entry nothing queued can conflict with has neither.
	// (t is not yet visible to any other thread — its entries sit in queues
	// we hold the locks of — so iterating t.entries bare is safe. Registered
	// waiters cannot fire before unlockAll, so the gate count is complete
	// before any decrement can happen.)
	var deps []Dep
	gates := int32(0)
	for _, en := range t.entries {
		q := queueIn(qs, en.obj)
		eventual := en.mode.Promote()
		if !q.othersConflict(en, eventual) {
			continue
		}
		if e.hooks.Depend != nil {
			deps = e.appendDeps(deps, q, en, eventual)
		}
		// (The summary has just said yes for eventual, which holds im's
		// rights: asking it again for im would repeat the ancestor walk.)
		if im := en.mode.Immediate(); im != 0 && !e.scan(q, en, im) {
			gates++
			e.waits.Add(1)
			q.waiters = append(q.waiters, &waiter{e: en, mode: im, kind: waitStart})
		}
	}
	t.gates.Store(gates)
	fireReady := false
	if gates == 0 {
		t.readyAt.Store(t.createdAt)
		t.state.Store(int32(Ready))
		fireReady = e.hooks.Ready != nil
	}
	e.unlockAll(qs)
	if fireReady {
		e.hooks.Ready(t)
	}
	if len(deps) > 0 {
		e.hooks.Depend(t, deps)
	}
	return t, nil
}

// Start transitions a Ready task to Running. Executors must call it exactly
// once before running the task body.
func (e *Engine) Start(t *Task) error {
	if !t.state.CompareAndSwap(int32(Ready), int32(Running)) {
		return fmt.Errorf("task %d (%v): Start in state %v", t.ID, t.Seq, t.State())
	}
	return nil
}

// Complete marks t done, removes all its entries and wakes newly enabled
// waiters. Children of t may still be live; their entries are their own.
// The task's queues are locked in canonical order for the whole release
// fan-out, so no queue ever shows an entry of a Done task.
func (e *Engine) Complete(t *Task) error {
	// Snapshot the entry set. Only t's own thread mutates it, and that
	// thread is the one calling Complete; t.mu guards the slice against
	// concurrent cross-thread readers.
	var ebuf [8]*entry
	t.mu.Lock()
	ents := append(ebuf[:0], t.entries...)
	t.mu.Unlock()
	var qbuf [8]*objQueue
	qs := qbuf[:0]
	for _, en := range ents {
		qs = e.insertQueueSorted(qs, en.obj)
	}
	e.lockAll(qs)
	if !t.state.CompareAndSwap(int32(Running), int32(Done)) {
		st := t.State()
		e.unlockAll(qs)
		return fmt.Errorf("task %d (%v): Complete in state %v", t.ID, t.Seq, st)
	}
	e.tasksCompleted.Add(1)
	e.live.Add(-1)
	if t.parent != nil {
		t.parent.children.Add(-1)
	}
	t.mu.Lock()
	t.entries = nil
	t.mu.Unlock()
	var fires []func()
	for _, q := range qs {
		for _, en := range ents {
			if en.obj != q.id {
				continue
			}
			fires = append(fires, e.releaseCmLocked(q, en)...)
			q.remove(en)
		}
		fires = append(fires, e.wakeLocked(q)...)
	}
	e.unlockAll(qs)
	runAll(fires)
	return nil
}

// Access acquires a checked data view on obj for immediate mode m (Read,
// Write or ReadWrite). If the task holds the right and its queue entry is
// enabled, the view is checked out and Access returns ok=true. If the entry
// is not currently enabled (a conflicting child was created meanwhile, or
// the caller is the root whose residual rights follow other tasks), Access
// returns ok=false and arranges for wake to be called exactly once when the
// view has been checked out; the caller must then block until wake.
// Undeclared access is a violation and returns an error.
func (e *Engine) Access(t *Task, obj access.ObjectID, m access.Mode, wake func()) (ok bool, err error) {
	if m.Immediate() == 0 || m.Deferred() != 0 {
		return false, fmt.Errorf("Access wants an immediate mode, got %v", m)
	}
	if s := t.State(); s != Running {
		err, fires := e.violation(t, "task %d (%v) accessed object #%d while %v", t.ID, t.Seq, obj, s)
		runAll(fires)
		return false, err
	}
	q := e.queue(obj)
	e.lockQueue(q)
	var en *entry
	if t == e.root {
		en = e.declare(t, q, access.ReadWrite|access.Commute)
	} else {
		en = q.entryOf(t)
	}
	var mode access.Mode
	if en != nil {
		mode = en.mode
	}
	if !mode.Has(m) {
		q.mu.Unlock()
		err, fires := e.violation(t,
			"access violation: task %d (%v) performs an undeclared %v access to object #%d (declared: %v)",
			t.ID, t.Seq, m, obj, mode)
		runAll(fires)
		return false, err
	}
	if e.enabled(q, en, m) {
		if m.Has(access.Commute) {
			// Order is satisfied; now take the mutual-exclusion lock.
			if q.cmLock != nil && q.cmLock != en {
				e.waits.Add(1)
				q.cmWaiters = append(q.cmWaiters, &waiter{e: en, mode: m, kind: waitAccess, wake: wake})
				q.mu.Unlock()
				return false, nil
			}
			q.cmLock = en
		}
		en.checkouts[cidx(m)]++
		q.mu.Unlock()
		return true, nil
	}
	e.waits.Add(1)
	q.waiters = append(q.waiters, &waiter{e: en, mode: m, kind: waitAccess, wake: wake})
	q.mu.Unlock()
	return false, nil
}

// releaseCmLocked frees q's commute lock if en holds it and hands it to the
// first queued commuting access. Caller holds q's lock; returned fires run
// after unlock.
func (e *Engine) releaseCmLocked(q *objQueue, en *entry) []func() {
	if q.cmLock != en {
		return nil
	}
	q.cmLock = nil
	if len(q.cmWaiters) == 0 {
		return nil
	}
	w := q.cmWaiters[0]
	q.cmWaiters = q.cmWaiters[1:]
	q.cmLock = w.e
	w.e.checkouts[cidx(w.mode)]++
	e.blockedWakes.Add(1)
	return []func(){w.wake}
}

// EndAccess releases a view previously checked out by Access with the same
// mode. Views are also released implicitly by Complete and by Retract of
// the corresponding rights. Releasing the last commuting view hands the
// object's mutual-exclusion lock to the next queued commuting task.
func (e *Engine) EndAccess(t *Task, obj access.ObjectID, m access.Mode) {
	q := e.queue(obj)
	e.lockQueue(q)
	var fires []func()
	if en := q.entryOf(t); en != nil && en.checkouts[cidx(m)] > 0 {
		en.checkouts[cidx(m)]--
		if m.Has(access.Commute) && en.checkouts[cidx(m)] == 0 {
			fires = e.releaseCmLocked(q, en)
		}
	}
	q.mu.Unlock()
	runAll(fires)
}

// ClearAccess releases every view t holds on obj (all modes). Tasks use it
// before creating a child whose declaration conflicts with views they still
// hold (typically the main program after initializing an object).
func (e *Engine) ClearAccess(t *Task, obj access.ObjectID) {
	q := e.queue(obj)
	e.lockQueue(q)
	var fires []func()
	if en := q.entryOf(t); en != nil {
		en.checkouts = [numCheckoutSlots]int32{}
		fires = e.releaseCmLocked(q, en)
	}
	q.mu.Unlock()
	runAll(fires)
}

// Convert promotes deferred rights on obj to immediate rights (the with-cont
// rd/wr statements, paper §4.2). which selects the deferred bits to promote
// (DeferredRead, DeferredWrite or both). If after promotion the entry is
// enabled for the newly immediate bits Convert returns ok=true; otherwise it
// returns ok=false and wake fires once the task may proceed. Converting
// rights that were never declared (even deferred) is a violation: a
// with-cont may refine a specification but never extend it, because the
// task's serial queue position was fixed at creation.
func (e *Engine) Convert(t *Task, obj access.ObjectID, which access.Mode, wake func()) (ok bool, err error) {
	if s := t.State(); s != Running {
		err, fires := e.violation(t, "task %d (%v) executed with-cont on object #%d while %v", t.ID, t.Seq, obj, s)
		runAll(fires)
		return false, err
	}
	q := e.queue(obj)
	e.lockQueue(q)
	var en *entry
	if t == e.root {
		en = e.declare(t, q, access.ReadWrite|access.DeferredReadWrite)
	} else {
		en = q.entryOf(t)
	}
	var cur access.Mode
	if en != nil {
		cur = en.mode
	}
	var want access.Mode // immediate bits we need enabled afterwards
	if which.HasAny(access.DeferredRead) {
		if !cur.HasAny(access.AnyRead) {
			q.mu.Unlock()
			err, fires := e.violation(t,
				"task %d (%v): with-cont declares rd on object #%d which was never declared (a with-cont cannot extend the specification)",
				t.ID, t.Seq, obj)
			runAll(fires)
			return false, err
		}
		want |= access.Read
	}
	if which.HasAny(access.DeferredWrite) {
		if !cur.HasAny(access.AnyWrite) {
			q.mu.Unlock()
			err, fires := e.violation(t,
				"task %d (%v): with-cont declares wr on object #%d which was never declared (a with-cont cannot extend the specification)",
				t.ID, t.Seq, obj)
			runAll(fires)
			return false, err
		}
		want |= access.Write
	}
	if en != nil {
		q.setMode(en, en.mode.PromoteSelected(which))
		if e.enabled(q, en, want) {
			q.mu.Unlock()
			return true, nil
		}
		e.waits.Add(1)
		q.waiters = append(q.waiters, &waiter{e: en, mode: want, kind: waitConvert, wake: wake})
		q.mu.Unlock()
		return false, nil
	}
	q.mu.Unlock()
	return true, nil
}

// Retract removes rights on obj (the with-cont no_rd/no_wr statements).
// which selects right kinds: AnyRead for no_rd, AnyWrite for no_wr. Live
// views of the retracted kind are released. Waiters that become enabled are
// woken. Retracting rights the task does not hold is a no-op (the paper's
// statements are declarations of non-use, not assertions of prior use).
func (e *Engine) Retract(t *Task, obj access.ObjectID, which access.Mode) error {
	if s := t.State(); s != Running {
		err, fires := e.violation(t, "task %d (%v) executed with-cont while %v", t.ID, t.Seq, s)
		runAll(fires)
		return err
	}
	q := e.queue(obj)
	e.lockQueue(q)
	en := q.entryOf(t)
	if en == nil {
		q.mu.Unlock()
		return nil
	}
	rest := en.mode &^ which
	q.setMode(en, rest)
	// Release views of the retracted kinds.
	for ci := range en.checkouts {
		if en.checkouts[ci] > 0 && checkoutMode(ci).HasAny(which.Promote()) {
			en.checkouts[ci] = 0
		}
	}
	var fires []func()
	if !en.mode.Has(access.Commute) {
		fires = append(fires, e.releaseCmLocked(q, en)...)
	}
	if rest == 0 {
		q.remove(en)
		t.dropEntry(en)
	}
	fires = append(fires, e.wakeLocked(q)...)
	q.mu.Unlock()
	runAll(fires)
	return nil
}

// wakeLocked rescans q's waiters after the queue shrank, firing those whose
// entries became enabled. Start-gate waiters decrement their task's atomic
// gate count; the decrement that reaches zero transitions the task to Ready
// exactly once (CAS) and appends the Ready hook to the returned fire list.
// Caller holds q's lock; returned funcs run after unlock.
func (e *Engine) wakeLocked(q *objQueue) []func() {
	var fires []func()
	kept := q.waiters[:0] // filtered in place: writes trail the reads
	for _, w := range q.waiters {
		if e.enabled(q, w.e, w.mode) {
			switch w.kind {
			case waitStart:
				e.blockedWakes.Add(1)
				t := w.e.task
				if t.gates.Add(-1) == 0 && t.state.CompareAndSwap(int32(Waiting), int32(Ready)) {
					t.readyAt.Store(e.now())
					if e.hooks.Ready != nil {
						h := e.hooks.Ready
						fires = append(fires, func() { h(t) })
					}
				}
			case waitAccess:
				if w.mode.Has(access.Commute) && q.cmLock != nil && q.cmLock != w.e {
					// Ordered, but the mutual-exclusion lock is busy.
					q.cmWaiters = append(q.cmWaiters, w)
					continue
				}
				if w.mode.Has(access.Commute) {
					q.cmLock = w.e
				}
				e.blockedWakes.Add(1)
				w.e.checkouts[cidx(w.mode)]++
				fires = append(fires, w.wake)
			case waitConvert:
				e.blockedWakes.Add(1)
				fires = append(fires, w.wake)
			}
		} else {
			kept = append(kept, w)
		}
	}
	clear(q.waiters[len(kept):])
	q.waiters = kept
	return fires
}

// QueueSnapshot returns, for tests and tracing, the IDs of tasks currently
// holding entries on obj in queue order.
func (e *Engine) QueueSnapshot(obj access.ObjectID) []TaskID {
	s := e.shardOf(obj)
	s.mu.RLock()
	q := s.queues[obj]
	s.mu.RUnlock()
	if q == nil {
		return nil
	}
	e.lockQueue(q)
	defer q.mu.Unlock()
	out := make([]TaskID, len(q.entries))
	for i, en := range q.entries {
		out[i] = en.task.ID
	}
	return out
}

func runAll(fires []func()) {
	for _, f := range fires {
		f()
	}
}
