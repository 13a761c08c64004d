// Package smp is the shared-memory Jade executor: real goroutines over the
// host's processors, one shared object store, hardware-shared memory — the
// paper's Silicon Graphics 4D/240S and Stanford DASH implementations. Only
// synchronization is needed; the shared address space is the real one.
//
// Ready tasks run on the runners of a pool (internal/exec/pool). A counting
// semaphore of P "processor slots" models P processors: a task holds a slot
// while computing and releases it while blocked, so blocked tasks never
// waste a processor and suspending a task creator (the paper's §3.3
// throttling) cannot deadlock.
package smp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/exec/pool"
	"repro/internal/format"
	"repro/internal/rt"
	"repro/internal/trace"
)

// Options configure the executor.
type Options struct {
	// Procs is the number of processor slots; 0 means runtime.NumCPU().
	Procs int
	// MaxLiveTasks bounds concurrently existing (created, not completed)
	// tasks, excluding the main program; task creators block above the
	// bound ("matching exploited concurrency with available concurrency",
	// §5). 0 means 64 × Procs.
	MaxLiveTasks int
	// Trace enables event recording (small overhead).
	Trace bool
}

// ringCap bounds the always-on event stream when full tracing is off: the
// newest events are kept for profiling, memory stays constant. The ring
// allocates its pointer-free blocks as events arrive (trace.NewRing), so a
// run pays for the events it records, at most 3.5 MiB, and the GC never
// scans them.
const ringCap = 1 << 16

// Exec is the shared-memory executor. Create with New; each Exec runs one
// program.
type Exec struct {
	opts  Options
	eng   *core.Engine
	log   *trace.Log
	start time.Time

	slots chan int // processor slot tokens (slot index as value)

	// Always-on counters. slotAt/slotBusy are indexed by slot and written
	// only by the slot's current holder; the slot-token channel orders
	// successive holders, and Run's WaitGroup orders the final reads.
	slotAt   []time.Time
	slotBusy []time.Duration
	tasksRun atomic.Int64

	// mu guards the executor's own state below. The throttle needs no
	// condition variable: a creator over the live-task bound never blocks
	// waiting for completions — it inlines the child on its own processor
	// (§3.3). Blocking the creator could deadlock, because tasks later in
	// serial order may be waiting on the creator's residual access rights.
	mu       sync.Mutex
	store    map[access.ObjectID]any
	nextObj  access.ObjectID
	liveUser int
	firstErr error

	// runners run the tasks the engine finds ready. Besides the runners'
	// claims, the main program claims a slot while it is not waiting.
	runners *pool.Pool[*core.Task]
	tasks   sync.WaitGroup // ready tasks not yet finished
}

// payload is the executor attachment on core tasks.
type payload struct {
	body  func(rt.TC)
	label string
	// readyCh marks a task the creator will execute itself (throttling,
	// §3.3: "the implementation can ... legally inline any task without
	// risking deadlock"); it is closed when the task becomes Ready.
	readyCh chan struct{}
}

// New returns an executor ready to Run one program.
func New(opts Options) *Exec {
	if opts.Procs <= 0 {
		opts.Procs = runtime.NumCPU()
	}
	if opts.MaxLiveTasks <= 0 {
		opts.MaxLiveTasks = 64 * opts.Procs
	}
	x := &Exec{
		opts:     opts,
		store:    map[access.ObjectID]any{},
		nextObj:  1,
		slots:    make(chan int, opts.Procs),
		slotAt:   make([]time.Time, opts.Procs),
		slotBusy: make([]time.Duration, opts.Procs),
	}
	x.runners = pool.New(opts.Procs, x.newRunner)
	if opts.Trace {
		x.log = trace.New()
	} else {
		x.log = trace.NewRing(ringCap)
	}
	for i := 0; i < opts.Procs; i++ {
		x.slots <- i
	}
	x.eng = core.New(core.Hooks{
		Ready: func(t *core.Task) {
			x.record(trace.Event{Kind: trace.TaskReady, Task: uint64(t.ID)})
			if pl := t.Payload.(*payload); pl.readyCh != nil {
				close(pl.readyCh)
				return
			}
			x.tasks.Add(1)
			x.runners.Push(t)
		},
		Violation: func(t *core.Task, err error) {
			x.record(trace.Event{Kind: trace.Violation, Task: uint64(t.ID), Label: err.Error()})
			x.fail(err)
		},
		Depend: func(later *core.Task, deps []core.Dep) {
			if x.log != nil { // as record: no clock read for a log nobody keeps
				x.log.AddDepends(time.Since(x.start), later, deps)
			}
		},
	})
	return x
}

// Engine returns the dependency engine.
func (x *Exec) Engine() *core.Engine { return x.eng }

// Log returns the trace log: the full log with Options.Trace, otherwise
// the bounded always-on stream.
func (x *Exec) Log() *trace.Log { return x.log }

// Counters implements rt.Exec: always-on per-slot busy time and task count.
// Valid after Run.
func (x *Exec) Counters() rt.Counters {
	return rt.Counters{
		TasksRun: int(x.tasksRun.Load()),
		Busy:     append([]time.Duration(nil), x.slotBusy...),
	}
}

// Stats implements rt.Exec: shared memory has no network, no delta layer,
// no failures and no worker fleet to report.
func (x *Exec) Stats() rt.Stats { return rt.Stats{} }

// takeSlot claims a processor slot and starts its busy stopwatch.
func (x *Exec) takeSlot() int {
	slot := <-x.slots
	x.slotAt[slot] = time.Now()
	return slot
}

// putSlot banks the held span and returns the slot.
func (x *Exec) putSlot(slot int) {
	x.slotBusy[slot] += time.Since(x.slotAt[slot])
	x.slots <- slot
}

func (x *Exec) record(ev trace.Event) {
	if x.log == nil {
		return
	}
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

// Run implements rt.Exec.
func (x *Exec) Run(root func(rt.TC)) error {
	x.mu.Lock()
	if !x.start.IsZero() {
		x.mu.Unlock()
		return fmt.Errorf("smp: Run called twice on the same executor")
	}
	x.start = time.Now()
	x.mu.Unlock()
	x.eng.SetClock(func() int64 { return int64(time.Since(x.start)) })
	x.runners.Resume() // the main program's claim
	tc := &taskCtx{x: x, t: x.eng.Root(), slot: x.takeSlot()}
	x.record(trace.Event{Kind: trace.TaskScheduled, Task: uint64(tc.t.ID), Dst: tc.slot, Label: "main"})
	x.execute(tc, "main", root, false)
	x.putSlot(tc.slot)
	x.runners.Yield()
	x.tasks.Wait()
	x.runners.Close()
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.firstErr
}

// runBody executes a task body, converting panics into program failure so
// one broken task cannot hang the rest of the graph.
func (x *Exec) runBody(tc *taskCtx, body func(rt.TC)) {
	defer func() {
		if r := recover(); r != nil {
			x.fail(fmt.Errorf("task %d (%v) panicked: %v", tc.t.ID, tc.t.Seq, r))
		}
	}()
	body(tc)
}

// newRunner sets up one runner: it takes a slot for each task the pool
// hands it, so a task coming back from yieldSlot competes for a slot with
// the queued tasks, runs the task and gives the slot back. One task context
// serves every task the runner runs, so its wake channel is made once: the
// engine keeps a task's wake only from a call that returned ok=false, and
// the task waits for that one signal before it can end.
func (x *Exec) newRunner() func(*core.Task) bool {
	tc := &taskCtx{x: x}
	return func(t *core.Task) bool {
		tc.t, tc.slot = t, x.takeSlot()
		pl := t.Payload.(*payload)
		x.record(trace.Event{Kind: trace.TaskScheduled, Task: uint64(t.ID), Dst: tc.slot, Label: pl.label})
		if err := x.eng.Start(t); err != nil {
			x.fail(err)
			x.runners.Free()
		} else {
			x.execute(tc, pl.label, pl.body, true)
		}
		x.putSlot(tc.slot)
		x.mu.Lock()
		x.liveUser--
		x.mu.Unlock()
		x.tasks.Done()
		return true
	}
}

// execute runs the body of the started task tc names on the slot tc holds
// and retires the task, from its Started event to its Committed one. A
// runner counts as free from the end of the body: what follows cannot wait,
// and a task the Complete readies should find this runner rather than
// start another.
func (x *Exec) execute(tc *taskCtx, label string, body func(rt.TC), runner bool) error {
	t := tc.t
	x.record(trace.Event{Kind: trace.TaskStarted, Task: uint64(t.ID), Dst: tc.slot, Label: label})
	x.runBody(tc, body)
	x.record(trace.Event{Kind: trace.TaskCompleted, Task: uint64(t.ID)})
	if runner {
		x.runners.Free()
	}
	if err := x.eng.Complete(t); err != nil {
		x.fail(err)
		return err
	}
	x.record(trace.Event{Kind: trace.TaskCommitted, Task: uint64(t.ID)})
	x.tasksRun.Add(1)
	return nil
}

// ObjectValue implements rt.Exec.
func (x *Exec) ObjectValue(obj access.ObjectID) any {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.store[obj]
}

// taskCtx implements rt.TC for one running task.
type taskCtx struct {
	x    *Exec
	t    *core.Task
	slot int
	// woke is the task's one wake-up channel and wake the function the
	// engine calls to signal it, both made at the first Access or Convert
	// and reused by the rest, and by the later tasks of the same runner.
	// The engine keeps wake only from a call that returned ok=false, and
	// the task then waits for exactly that one signal, so the channel never
	// holds more than one.
	woke chan struct{}
	wake func()
}

// waker returns the task's wake function, making it on first use.
func (tc *taskCtx) waker() func() {
	if tc.wake == nil {
		woke := make(chan struct{}, 1)
		tc.woke, tc.wake = woke, func() { woke <- struct{}{} }
	}
	return tc.wake
}

// CoreTask implements rt.TC.
func (tc *taskCtx) CoreTask() *core.Task { return tc.t }

// Machine implements rt.TC: the processor slot currently held.
func (tc *taskCtx) Machine() int { return tc.slot }

// yieldSlot releases the processor while the task waits for ch and
// reacquires one after. While it waits, its claim on a slot is withdrawn,
// so a queued task gets a runner for the slot it gave up.
func (tc *taskCtx) yieldSlot(ch <-chan struct{}) {
	tc.x.runners.Yield()
	tc.x.putSlot(tc.slot)
	<-ch
	tc.x.runners.Resume()
	tc.slot = tc.x.takeSlot()
}

// Access implements rt.TC.
func (tc *taskCtx) Access(obj access.ObjectID, m access.Mode) (any, error) {
	ok, err := tc.x.eng.Access(tc.t, obj, m, tc.waker())
	if err != nil {
		return nil, err
	}
	if !ok {
		tc.yieldSlot(tc.woke)
	}
	tc.x.mu.Lock()
	v, exists := tc.x.store[obj]
	tc.x.mu.Unlock()
	if !exists {
		return nil, fmt.Errorf("task %d: access to unallocated object #%d", tc.t.ID, obj)
	}
	return v, nil
}

// EndAccess implements rt.TC.
func (tc *taskCtx) EndAccess(obj access.ObjectID, m access.Mode) {
	tc.x.eng.EndAccess(tc.t, obj, m)
}

// ClearAccess implements rt.TC.
func (tc *taskCtx) ClearAccess(obj access.ObjectID) {
	tc.x.eng.ClearAccess(tc.t, obj)
}

// Convert implements rt.TC.
func (tc *taskCtx) Convert(obj access.ObjectID, which access.Mode) error {
	ok, err := tc.x.eng.Convert(tc.t, obj, which, tc.waker())
	if err != nil {
		return err
	}
	if !ok {
		tc.yieldSlot(tc.woke)
	}
	return nil
}

// Retract implements rt.TC.
func (tc *taskCtx) Retract(obj access.ObjectID, which access.Mode) error {
	return tc.x.eng.Retract(tc.t, obj, which)
}

// Create implements rt.TC.
//
// When the live-task bound is reached the child is created but executed
// inline by the creator on its own processor (§3.3). Inlining rather than
// blocking is what makes throttling deadlock-free even when every live task
// depends on the creator's subtree.
func (tc *taskCtx) Create(decls []access.Decl, opts rt.TaskOpts, body func(rt.TC)) error {
	pl := &payload{body: body, label: opts.Label}
	tc.x.mu.Lock()
	if tc.x.liveUser >= tc.x.opts.MaxLiveTasks {
		pl.readyCh = make(chan struct{})
	} else {
		tc.x.liveUser++
	}
	tc.x.mu.Unlock()

	t, err := tc.x.eng.Create(tc.t, decls, pl)
	if err != nil {
		if pl.readyCh == nil {
			tc.x.mu.Lock()
			tc.x.liveUser--
			tc.x.mu.Unlock()
		}
		return err
	}
	tc.x.record(trace.Event{Kind: trace.TaskCreated, Task: uint64(t.ID), Label: opts.Label})
	if pl.readyCh == nil {
		return nil
	}

	// Wait (yielding the processor) until the child's declarations enable,
	// then run it here. The wait is on strictly earlier tasks, so it cannot
	// cycle back to this creator.
	select {
	case <-pl.readyCh:
	default:
		tc.yieldSlot(pl.readyCh)
	}
	if err := tc.x.eng.Start(t); err != nil {
		tc.x.fail(err)
		return err
	}
	child := &taskCtx{x: tc.x, t: t, slot: tc.slot}
	tc.x.record(trace.Event{Kind: trace.TaskScheduled, Task: uint64(t.ID), Dst: tc.slot, Label: opts.Label})
	err = tc.x.execute(child, opts.Label, body, false)
	// The child borrows the creator's slot, but if its body blocked it
	// yielded that slot and reacquired a (possibly different) one. The
	// creator must continue on the slot the child actually ends holding —
	// otherwise it would later release a token it no longer owns.
	tc.slot = child.slot
	return err
}

// Alloc implements rt.TC.
func (tc *taskCtx) Alloc(initial any, label string) (access.ObjectID, error) {
	if format.KindOf(initial) == format.KindInvalid {
		return 0, fmt.Errorf("alloc %q: unsupported object type %T (portable Jade objects must be format-encodable)", label, initial)
	}
	tc.x.mu.Lock()
	id := tc.x.nextObj
	tc.x.nextObj++
	tc.x.store[id] = initial
	tc.x.mu.Unlock()
	tc.x.eng.RegisterObject(tc.t, id)
	return id, nil
}

// Charge implements rt.TC: computation takes real time here.
func (tc *taskCtx) Charge(work float64) {}

var _ rt.Exec = (*Exec)(nil)
var _ rt.TC = (*taskCtx)(nil)
