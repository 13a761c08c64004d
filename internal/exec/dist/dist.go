// Package dist is the message-passing Jade executor: it runs a Jade program
// on a simulated platform of machines with private memories connected by a
// modeled network — the paper's iPSC/860, Mica Ethernet array, and
// heterogeneous HRV implementations.
//
// Task bodies execute for real (so results and the dynamic task graph are
// genuine), but computation and communication are charged in virtual time
// on a discrete-event simulator (internal/sim). This reproduces the paper's
// implementation activities (§5):
//
//   - Object management: objects migrate on write access and replicate on
//     read access; global identifiers translate to machine-local versions.
//   - Data format conversion: transfers between machines of different
//     formats re-encode the data (internal/format) and charge per-word cost.
//   - Dynamic load balancing: ready tasks go to the least-loaded machine.
//   - Locality heuristic: machines already holding a task's objects are
//     preferred, saving transfers.
//   - Latency hiding: a task's objects are fetched before it claims a
//     processor, overlapping communication with other tasks' computation.
//   - Throttling: above the live-task bound creators inline children,
//     which can never deadlock (§3.3).
package dist

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/format"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options configure the executor.
type Options struct {
	// Platform describes machines, network and runtime costs.
	Platform machine.Platform
	// MaxLiveTasks bounds concurrently existing tasks (0 = 256); above it
	// creators inline children.
	MaxLiveTasks int
	// NoPrefetch disables latency hiding: objects are fetched only after
	// the task has claimed its processor (ablation A2).
	NoPrefetch bool
	// NoLocality disables the locality heuristic in machine selection
	// (ablation A1).
	NoLocality bool
	// NoDelta disables delta transfers and dispatch coalescing: every
	// re-fetch ships the full object image and every task dispatch is its
	// own control message (ablation D1).
	NoDelta bool
	// Trace enables event recording.
	Trace bool
	// EventLimit bounds simulator events (0 = 50M) to catch runaways —
	// in particular failure-recovery or retransmission loops that would
	// otherwise spin forever in virtual time.
	EventLimit uint64
	// Fault injects machine crashes, message loss/duplication and link
	// partitions (nil = fault-free run). With a plan set, the executor
	// runs a virtual-time heartbeat failure detector, retries lost
	// messages, and recovers crashed machines' work by re-execution.
	Fault *fault.Plan
}

// Exec is the distributed executor. Create with New; each Exec runs one
// program.
type Exec struct {
	opts Options
	plat machine.Platform
	seng *sim.Engine
	net  netmodel.Network
	eng  *core.Engine
	log  *trace.Log

	cpus []*sim.Resource
	// cpuAt[m] is when machine m's (single) processor was last claimed and
	// cpuBusy[m] its accumulated held time — the always-on utilization
	// counters. Single-threaded: the simulator runs one process at a time.
	cpuAt    []sim.Time
	cpuBusy  []time.Duration
	tasksRun int
	// convWords counts data words format-converted in transit between
	// heterogeneous machines (always-on, like tasksRun).
	convWords int
	stores    []map[access.ObjectID]any
	// dir is the object directory (owner, holders, generation, write
	// history) and each machine's shadow generations; the bytes those
	// describe live in stores and stale.
	dir     *coherence.Directory
	nextObj access.ObjectID
	// fetches tracks in-flight read replications per object, enabling the
	// wave (binomial-tree) distribution of hot read-shared objects.
	fetches map[access.ObjectID]*objFetch
	// stale[m] holds machine m's invalidated copies, each frozen at the
	// generation the directory records as m's shadow of the object. When m
	// re-fetches the object, the sender diffs its current contents against
	// the stale copy and ships only the changed words. A landing transfer
	// (delta or full) clears it. Empty when Options.NoDelta and no fault
	// plan: nothing would read it.
	stale  []map[access.ObjectID]any
	dstats rt.DeltaStats

	// testHookPreStart, when set, runs just before the engine Start of a
	// scheduled (non-inline) task. Tests use it to force Start failures.
	testHookPreStart func(*core.Task)

	pendingWork  []float64 // per-machine assigned-unfinished work units
	pendingTasks []int
	liveUser     int
	// planned[obj] marks machines that already have an assigned (but not
	// yet fetched) task reading obj: the scheduler treats the copy as
	// present so several tasks sharing a big object gravitate to the
	// machines that will fetch it once. Cleared when a writer migrates the
	// object.
	planned map[access.ObjectID]map[int]bool

	// failMu guards firstErr: fail is called from simulated processes but
	// also (via runBody's panic recovery) from user task bodies that may
	// legally spawn their own goroutines, so latching must be single-writer.
	failMu   sync.Mutex
	firstErr error
	ran      bool

	// Fault tolerance state (nil/zero unless Options.Fault is set).
	fplan     *fault.Plan
	fnet      *fault.Network
	dead      []bool     // dead[m]: machine m has crashed (fail-stop)
	noticed   []bool     // noticed[m]: the failure detector observed m's death
	buried    []bool     // buried[m]: m's recovery has completed
	crashedAt []sim.Time // valid while dead[m]
	// recovered is broadcast after each completed recovery pass; fetchers
	// blocked on a dead owner re-read the directory then.
	recovered *sim.Cond
	// liveTasks registers every scheduled (non-inline) task from placement
	// to completion, so recovery can find the in-flight tasks of a dead
	// machine and re-dispatch them.
	liveTasks map[*core.Task]*payload
	// inputs snapshots the value of each object as a task first fetched it
	// (sender-based logging, homed at the creator's machine); a committed
	// task can then be deterministically replayed to re-derive an object
	// generation that existed only on a crashed machine.
	inputs *inputLog
	fstats fault.Stats
}

// dispatchMsg is a pending task-dispatch control message that would like to
// ride along with the task's first object transfer on the same link. Sent
// standalone it costs bytes (payload plus message envelope); piggybacked it
// shares the carrier's envelope and adds only piggy bytes.
type dispatchMsg struct {
	task     uint64
	src, dst int
	bytes    int
	piggy    int
	sent     bool
}

// match consumes the pending dispatch if it travels the same link, returning
// the piggyback bytes to fold into the data message.
func (d *dispatchMsg) match(src, dst int) (int, bool) {
	if d == nil || d.sent || src != d.src || dst != d.dst {
		return 0, false
	}
	d.sent = true
	return d.piggy, true
}

// objFetch coordinates concurrent read fetches of one object: each current
// copy holder sources at most one transfer at a time, and each destination
// fetches at most once. Waiters retry when the copy set or the busy sets
// change, which makes simultaneous fan-out replicate the object along a
// binomial tree (machine 0 → 1; then 0 → 2 and 1 → 3 in parallel; ...)
// exactly like the distribution protocols real message-passing codes use.
type objFetch struct {
	cond    *sim.Cond
	srcBusy map[int]bool
	dstBusy map[int]bool
}

// payload is the executor attachment on core tasks.
type payload struct {
	body    func(rt.TC)
	opts    rt.TaskOpts
	creator int // machine that executed the withonly-do
	machine int // assigned machine
	inline  bool
	ready   *sim.Cond
	isReady bool
	// skipBody marks a task whose placement failed (no machine offers a
	// required capability): the task's lifecycle still runs so the program
	// terminates, but the body — which must not execute on a machine
	// lacking the capability — is skipped.
	skipBody bool
	// attempt counts dispatches of this task; recovery bumps it before
	// re-dispatching so the crashed attempt's unwind does not double-release
	// accounting the new attempt now owns.
	attempt int
	// released marks that the task's live-task throttle slot has been
	// returned (exactly once per task, not per attempt).
	released bool
}

// New returns an executor for the platform.
func New(opts Options) (*Exec, error) {
	if err := opts.Platform.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxLiveTasks <= 0 {
		opts.MaxLiveTasks = 256
	}
	if opts.EventLimit == 0 {
		opts.EventLimit = 50_000_000
	}
	n := len(opts.Platform.Machines)
	x := &Exec{
		opts:         opts,
		plat:         opts.Platform,
		seng:         sim.New(),
		dir:          coherence.NewDirectory(),
		nextObj:      1,
		fetches:      map[access.ObjectID]*objFetch{},
		pendingWork:  make([]float64, n),
		pendingTasks: make([]int, n),
		planned:      map[access.ObjectID]map[int]bool{},
	}
	x.seng.SetEventLimit(opts.EventLimit)
	x.net = opts.Platform.Net.Instantiate(x.seng, n)
	if opts.Fault.Active() {
		if err := opts.Fault.Validate(n); err != nil {
			return nil, err
		}
		x.fplan = opts.Fault
		x.fnet = fault.Wrap(x.net, x.seng, *opts.Fault, n)
		x.net = x.fnet
		x.dead = make([]bool, n)
		x.noticed = make([]bool, n)
		x.buried = make([]bool, n)
		x.crashedAt = make([]sim.Time, n)
		x.recovered = x.seng.NewCond()
		x.liveTasks = map[*core.Task]*payload{}
		x.inputs = newInputLog()
	}
	x.cpus = make([]*sim.Resource, n)
	x.cpuAt = make([]sim.Time, n)
	x.cpuBusy = make([]time.Duration, n)
	x.stores = make([]map[access.ObjectID]any, n)
	x.stale = make([]map[access.ObjectID]any, n)
	for i := 0; i < n; i++ {
		x.cpus[i] = x.seng.NewResource(1)
		x.stores[i] = map[access.ObjectID]any{}
		x.stale[i] = map[access.ObjectID]any{}
	}
	if opts.Trace {
		x.log = trace.New()
	} else {
		x.log = trace.NewRing(ringCap)
	}
	x.eng = core.New(core.Hooks{
		Ready:     x.onReady,
		Violation: x.onViolation,
		Depend: func(later *core.Task, deps []core.Dep) {
			if x.log != nil { // as record: no clock read for a log nobody keeps
				x.log.AddDepends(time.Duration(x.seng.Now()), later, deps)
			}
		},
	})
	x.eng.SetClock(func() int64 { return int64(x.seng.Now()) })
	return x, nil
}

// ringCap bounds the always-on event stream when full tracing is off.
const ringCap = 1 << 16

// acquireCPU claims machine m's processor and starts its busy stopwatch.
func (x *Exec) acquireCPU(p *sim.Proc, m int) {
	x.cpus[m].Acquire(p, 1)
	x.cpuAt[m] = x.seng.Now()
}

// releaseCPU banks the held span and frees the processor.
func (x *Exec) releaseCPU(m int) {
	x.cpuBusy[m] += time.Duration(x.seng.Now() - x.cpuAt[m])
	x.cpus[m].Release(1)
}

// Counters implements rt.Exec: always-on per-machine processor-held time
// and the executed-task count. Valid after Run.
func (x *Exec) Counters() rt.Counters {
	return rt.Counters{
		TasksRun: x.tasksRun,
		Busy:     append([]time.Duration(nil), x.cpuBusy...),
	}
}

// Engine returns the dependency engine.
func (x *Exec) Engine() *core.Engine { return x.eng }

// Log returns the trace log (nil unless Options.Trace).
func (x *Exec) Log() *trace.Log { return x.log }

// Stats implements rt.Exec: virtual makespan, modeled network traffic, the
// delta ledger, and the fault counters — the network wrapper's injection
// side merged with the executor's detection/recovery side (zero-valued for
// fault-free runs).
func (x *Exec) Stats() rt.Stats {
	fs := x.fstats
	if x.fnet != nil {
		fs = fs.Add(x.fnet.FaultStats())
	}
	return rt.Stats{
		Makespan:       time.Duration(x.seng.Now()),
		Net:            x.net.Stats(),
		Delta:          x.dstats,
		Fault:          fs,
		ConvertedWords: x.convWords,
	}
}

func (x *Exec) record(ev trace.Event) {
	if x.log == nil {
		return
	}
	ev.At = time.Duration(x.seng.Now())
	x.log.Add(ev)
}

// fail latches the first error. It is safe to call from any goroutine:
// although the simulator hands control to one process at a time, user task
// bodies may spawn goroutines of their own, and the shared-memory idiom of
// "first error wins" must hold under the race detector too.
func (x *Exec) fail(err error) {
	x.failMu.Lock()
	if x.firstErr == nil {
		x.firstErr = err
	}
	x.failMu.Unlock()
}

// firstError returns the latched error.
func (x *Exec) firstError() error {
	x.failMu.Lock()
	defer x.failMu.Unlock()
	return x.firstErr
}

func (x *Exec) onViolation(t *core.Task, err error) {
	x.record(trace.Event{Kind: trace.Violation, Task: uint64(t.ID), Label: err.Error()})
	x.fail(err)
}

// onReady fires when a task's declarations enable. Inline tasks signal the
// waiting creator; normal tasks are placed on a machine and get a process.
func (x *Exec) onReady(t *core.Task) {
	pl := t.Payload.(*payload)
	x.record(trace.Event{Kind: trace.TaskReady, Task: uint64(t.ID)})
	pl.isReady = true
	if pl.inline {
		if pl.ready != nil {
			pl.ready.Broadcast()
		}
		return
	}
	m, err := x.place(t, pl)
	if err != nil {
		x.fail(err)
		// No machine may legally run this task (e.g. its required
		// capability exists nowhere on the platform). Record the violation
		// and run only the task's lifecycle on machine 0 with the body
		// skipped: dependents unblock and the program terminates
		// deterministically, but the capability-constrained body never
		// executes on a machine that lacks the capability.
		x.record(trace.Event{Kind: trace.Violation, Task: uint64(t.ID), Label: err.Error()})
		pl.skipBody = true
		m = 0
	}
	pl.machine = m
	x.pendingWork[m] += pl.opts.Cost
	x.pendingTasks[m]++
	if x.liveTasks != nil {
		x.liveTasks[t] = pl
	}
	x.record(trace.Event{Kind: trace.TaskAssigned, Task: uint64(t.ID), Dst: m, Label: pl.opts.Label})
	x.seng.Spawn(fmt.Sprintf("task-%d", t.ID), func(p *sim.Proc) {
		x.runTask(p, t, pl, pl.attempt)
	})
}

// place chooses the machine for a task: §4.5 pinning and capability
// constraints first, then least estimated load, with a locality bonus for
// machines already holding the task's objects.
func (x *Exec) place(t *core.Task, pl *payload) (int, error) {
	if m, pinned := pl.opts.PinnedMachine(); pinned {
		if m >= len(x.plat.Machines) {
			return 0, fmt.Errorf("task %q pinned to invalid machine %d", pl.opts.Label, m)
		}
		if pl.opts.RequireCap != "" && !x.plat.Machines[m].HasCap(pl.opts.RequireCap) {
			return 0, fmt.Errorf("task %q pinned to machine %d which lacks capability %q", pl.opts.Label, m, pl.opts.RequireCap)
		}
		if x.dead != nil && x.dead[m] {
			return 0, fmt.Errorf("task %q pinned to machine %d, which has crashed", pl.opts.Label, m)
		}
		return m, nil
	}
	best, bestScore := -1, 0.0
	for m := range x.plat.Machines {
		if x.dead != nil && x.dead[m] {
			continue
		}
		if pl.opts.RequireCap != "" && !x.plat.Machines[m].HasCap(pl.opts.RequireCap) {
			continue
		}
		spec := x.plat.Machines[m]
		// Estimated seconds until this machine would finish the task:
		// queued work, per-task overhead, the task itself.
		score := x.pendingWork[m]/spec.Speed +
			float64(x.pendingTasks[m])*x.plat.TaskOverhead.Seconds() +
			pl.opts.Cost/spec.Speed
		if !x.opts.NoLocality {
			// Add the transfer time for the task's objects this machine
			// does NOT already hold and no assigned task will fetch
			// (write-only declarations move no data).
			var missing int
			for _, d := range t.ImmediateDecls() {
				if !d.Mode.Has(access.Read) {
					continue
				}
				if x.planned[d.Object][m] {
					continue
				}
				if dir := x.dir.Entry(d.Object); dir != nil && !dir.Holds(m) {
					size := format.SizeOf(x.stores[dir.Owner][d.Object])
					if _, stale := x.stale[m][d.Object]; stale && !x.opts.NoDelta {
						// The machine holds a stale shadow: a re-fetch
						// travels as a patch of the changed words, typically
						// a small fraction of the image. Weigh it as such so
						// tasks gravitate back to machines that already paid
						// for the bulk of the object.
						size /= 8
					}
					missing += size
				}
			}
			score += x.plat.Net.ApproxTime(missing).Seconds()
		}
		if best == -1 || score < bestScore {
			best, bestScore = m, score
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("task %q: no machine offers capability %q", pl.opts.Label, pl.opts.RequireCap)
	}
	// Record the reads this assignment implies so later placements know the
	// copies are coming.
	for _, d := range t.ImmediateDecls() {
		if d.Mode.Has(access.Read) {
			p := x.planned[d.Object]
			if p == nil {
				p = map[int]bool{}
				x.planned[d.Object] = p
			}
			p[best] = true
		}
	}
	return best, nil
}

// runTask is the simulated process for one assigned task. attempt is the
// dispatch generation: when the machine crashes mid-flight, recovery bumps
// pl.attempt and re-dispatches, and this (now superseded) process unwinds
// quietly at its next checkpoint via the machineDied panic.
func (x *Exec) runTask(p *sim.Proc, t *core.Task, pl *payload, attempt int) {
	m := pl.machine
	cpuHeld := false
	// The scheduler accounting charged at assignment must unwind on every
	// exit path — including the early return when engine Start fails and
	// the abort of an attempt on a crashed machine — or the machine looks
	// permanently loaded and the live-task throttle never opens again.
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(machineDied); !ok {
				panic(r)
			}
			// This attempt died with its machine. Release the processor if
			// held (queued doomed processes must still drain through it) and
			// unwind the per-attempt accounting; recovery re-dispatches the
			// task on a surviving machine.
			if cpuHeld {
				x.releaseCPU(m)
			}
		}
		x.pendingWork[m] -= pl.opts.Cost
		x.pendingTasks[m]--
		if !pl.released && attempt == pl.attempt {
			pl.released = true
			x.liveUser--
		}
	}()
	// Model the task-dispatch control message (Fig. 7(b-c): the task moves
	// to the machine that will execute it). Unless coalescing is disabled,
	// it waits to piggyback on the task's first object transfer over the
	// same link; fetchAll flushes it standalone if none matches.
	var pig *dispatchMsg
	if !pl.skipBody && pl.creator != m && x.plat.DispatchBytes > 0 {
		if x.opts.NoDelta {
			if err := x.send(p, pl.creator, m, x.plat.DispatchBytes); err == nil {
				x.record(trace.Event{Kind: trace.MessageSent, Task: uint64(t.ID), Src: pl.creator, Dst: m, Bytes: x.plat.DispatchBytes, Label: "dispatch"})
			}
		} else {
			piggy := x.plat.DispatchBytes - x.plat.MsgEnvelopeBytes
			if piggy < 0 {
				piggy = 0
			}
			pig = &dispatchMsg{task: uint64(t.ID), src: pl.creator, dst: m, bytes: x.plat.DispatchBytes, piggy: piggy}
		}
	}
	if !pl.skipBody && !x.opts.NoPrefetch {
		// Latency hiding: fetch while other tasks compute on this cpu.
		x.fetchAll(p, t, m, pig)
		x.record(trace.Event{Kind: trace.TaskFetched, Task: uint64(t.ID), Dst: m, Label: pl.opts.Label})
	}
	x.acquireCPU(p, m)
	cpuHeld = true
	x.checkAlive(m)
	x.record(trace.Event{Kind: trace.TaskScheduled, Task: uint64(t.ID), Dst: m, Label: pl.opts.Label})
	if !pl.skipBody && x.opts.NoPrefetch {
		// Machine sits idle during its own fetches.
		x.fetchAll(p, t, m, pig)
		x.record(trace.Event{Kind: trace.TaskFetched, Task: uint64(t.ID), Dst: m, Label: pl.opts.Label})
	}
	p.Sleep(x.plat.TaskOverhead)
	x.checkAlive(m)
	if x.testHookPreStart != nil {
		x.testHookPreStart(t)
	}
	if attempt > 0 && t.State() == core.Running {
		// A prior attempt on a crashed machine already moved the task to
		// Running; this re-execution resumes the same lifecycle entry (the
		// engine's grants survive — conflicting later tasks stay blocked
		// until this task completes, which is what makes re-running from the
		// declared read set safe).
	} else if err := x.eng.Start(t); err != nil {
		x.fail(err)
		x.releaseCPU(m)
		return
	}
	x.record(trace.Event{Kind: trace.TaskStarted, Task: uint64(t.ID), Dst: m, Label: pl.opts.Label})
	tc := &taskCtx{x: x, t: t, p: p, machine: m, wake: x.seng.NewCond(), cpuHeld: &cpuHeld}
	if !pl.skipBody {
		if pl.opts.Cost > 0 {
			p.Sleep(time.Duration(pl.opts.Cost / x.plat.Machines[m].Speed * 1e9))
			x.checkAlive(m)
		}
		x.runBody(tc, pl.body)
	}
	x.record(trace.Event{Kind: trace.TaskCompleted, Task: uint64(t.ID), Dst: m})
	if err := x.eng.Complete(t); err != nil {
		x.fail(err)
	}
	if x.liveTasks != nil {
		delete(x.liveTasks, t)
	}
	x.record(trace.Event{Kind: trace.TaskCommitted, Task: uint64(t.ID), Dst: m})
	x.tasksRun++
	x.releaseCPU(m)
	cpuHeld = false
}

// runBody executes a task body, converting panics into program failure. The
// machineDied abort is not a failure: it propagates so the task process
// unwinds and recovery re-executes the body elsewhere.
func (x *Exec) runBody(tc *taskCtx, body func(rt.TC)) {
	defer func() {
		if r := recover(); r != nil {
			if md, ok := r.(machineDied); ok {
				panic(md)
			}
			x.fail(fmt.Errorf("task %d (%v) panicked: %v", tc.t.ID, tc.t.Seq, r))
		}
	}()
	body(tc)
}

// fetchAll moves or copies every immediately-declared object to machine m.
// Commuting declarations are skipped: the object is fetched when the task
// actually takes the mutual-exclusion lock, since another commuting task
// may legitimately hold (and be mutating) it right now. A pending dispatch
// control message rides along with the first transfer on its link; if none
// matched, it is flushed standalone afterwards.
func (x *Exec) fetchAll(p *sim.Proc, t *core.Task, m int, pig *dispatchMsg) {
	for _, d := range t.ImmediateDecls() {
		if d.Mode.Has(access.Commute) {
			continue
		}
		x.fetchObject(p, t, d.Object, m, d.Mode.Has(access.Read), d.Mode.Has(access.Write), pig)
	}
	if pig != nil && !pig.sent {
		pig.sent = true
		// A dead creator cannot flush the dispatch; the task is already here,
		// so the control message is moot.
		if err := x.send(p, pig.src, pig.dst, pig.bytes); err == nil {
			x.record(trace.Event{Kind: trace.MessageSent, Task: pig.task, Src: pig.src, Dst: pig.dst, Bytes: pig.bytes, Label: "dispatch"})
		}
	}
}

// unplan clears the note that machine m will fetch obj, once the copy has
// actually landed (or was already present): from then on the directory, not
// the plan, is the truth, and leaving the entry behind would make the
// scheduler count a phantom copy forever.
func (x *Exec) unplan(obj access.ObjectID, m int) {
	if pm := x.planned[obj]; pm != nil {
		delete(pm, m)
		if len(pm) == 0 {
			delete(x.planned, obj)
		}
	}
}

// fetchObject implements the object management protocol: migrate on write
// (invalidating other copies — the old versions are obsolete once the
// writer runs, Fig. 7(c)), replicate on read (concurrent read copies, §5
// "Object Replication"). A write-only declaration (wr without rd) transfers
// ownership with a control message but no data: the task may not read the
// old contents, so they never cross the network — the writer gets a fresh
// zeroed buffer.
func (x *Exec) fetchObject(p *sim.Proc, t *core.Task, obj access.ObjectID, m int, read, write bool, pig *dispatchMsg) {
	d := x.dir.Entry(obj)
	if d == nil {
		// Access checking rejects undeclared objects before we get here,
		// so a missing directory entry is an internal error.
		x.fail(fmt.Errorf("object #%d has no directory entry", obj))
		return
	}
	if write {
		zeroed := false
		for d.Owner != m {
			// A crashed owner cannot source the transfer: wait for recovery
			// to rebuild the directory entry, then retry against the new
			// owner. An errSourceDied from mid-transfer means the owner
			// crashed while sending — same treatment.
			x.waitOwnerAlive(p, d, m)
			if d.Owner == m {
				break
			}
			src := d.Owner
			if read {
				if err := x.transfer(p, t, src, m, d, pig); err != nil {
					continue
				}
				x.checkAlive(m)
				x.record(trace.Event{Kind: trace.ObjectMoved, Task: uint64(t.ID), Object: uint64(obj), Src: src, Dst: m,
					Bytes: format.SizeOf(x.stores[m][obj]), Label: d.Label})
			} else {
				// Ownership transfer only: small control message (the task
				// may not read the old contents, so no data moves). A
				// pending dispatch for this link rides along.
				ctl := 32
				extra, coalesced := pig.match(src, m)
				if coalesced {
					ctl += extra
				}
				if err := x.send(p, src, m, ctl); err != nil {
					continue
				}
				x.checkAlive(m)
				if coalesced {
					x.dstats.CoalescedDispatches++
					x.record(trace.Event{Kind: trace.DispatchCoalesced, Task: pig.task, Src: pig.src, Dst: pig.dst, Bytes: extra})
				}
				x.record(trace.Event{Kind: trace.MessageSent, Task: uint64(t.ID), Object: uint64(obj), Src: src, Dst: m, Bytes: ctl, Label: "ownership"})
				x.stores[m][obj] = format.ZeroLike(x.stores[src][obj])
				delete(x.stale[m], obj)
				zeroed = true
				x.record(trace.Event{Kind: trace.ObjectMoved, Task: uint64(t.ID), Object: uint64(obj), Src: src, Dst: m,
					Bytes: 0, Label: d.Label + " (write-only)"})
			}
			break
		}
		x.checkAlive(m)
		// Log what the writer observes before the grant starts the next
		// generation: the snapshot belongs to the outgoing one.
		x.logInput(t, d, m, zeroed)
		for _, c := range x.dir.GrantWrite(d, m, t) {
			// Keep the invalidated value as a stale copy: a later re-fetch
			// by this machine can then be satisfied with a patch of just
			// the words the writers changed — and recovery can restore the
			// committed version from it if the owner dies.
			if old := x.stores[c][obj]; old != nil && (!x.opts.NoDelta || x.fplan != nil) {
				x.stale[c][obj] = old
			} else {
				x.dir.DropShadow(d, c)
			}
			delete(x.stores[c], obj)
			x.record(trace.Event{Kind: trace.ObjectInvalidated, Object: uint64(obj), Src: c, Dst: c, Label: d.Label})
		}
		// Planned read copies of the old version are moot.
		delete(x.planned, obj)
		return
	}
	if d.Holds(m) {
		x.unplan(obj, m)
		x.logInput(t, d, m, false)
		return
	}
	// Read replication. Concurrent fetches of a hot object coordinate so
	// every copy holder feeds one new machine per wave (binomial-tree
	// distribution), and duplicate fetches to the same machine wait for
	// the first (two queued tasks reading the same column, Fig. 7(f)).
	f := x.fetches[obj]
	if f == nil {
		f = &objFetch{cond: x.seng.NewCond(), srcBusy: map[int]bool{}, dstBusy: map[int]bool{}}
		x.fetches[obj] = f
	}
	for !d.Holds(m) {
		x.checkAlive(m)
		if f.dstBusy[m] {
			f.cond.Wait(p, "fetch-dup")
			continue
		}
		src := -1
		for _, c := range d.Holders() {
			if !(x.dead != nil && x.dead[c]) && !f.srcBusy[c] {
				src = c
				break
			}
		}
		if src == -1 {
			// Every copy holder is busy — or dead, in which case recovery
			// will rebuild the copy set and broadcast this condition.
			f.cond.Wait(p, "fetch-source")
			continue
		}
		f.srcBusy[src] = true
		f.dstBusy[m] = true
		err := func() error {
			// The busy flags must clear even when the transfer aborts with a
			// machineDied panic, or surviving fetchers would wait on them
			// forever.
			defer func() {
				delete(f.srcBusy, src)
				delete(f.dstBusy, m)
				f.cond.Broadcast()
			}()
			return x.transfer(p, t, src, m, d, pig)
		}()
		if err != nil {
			// The source died mid-transfer; retry from another copy once
			// recovery has repaired the directory.
			continue
		}
		x.checkAlive(m)
		x.dir.GrantRead(d, m)
		x.unplan(obj, m)
		x.record(trace.Event{Kind: trace.ObjectCopied, Task: uint64(t.ID), Object: uint64(obj), Src: src, Dst: m,
			Bytes: format.SizeOf(x.stores[m][obj]), Label: d.Label})
	}
	x.logInput(t, d, m, false)
}

// transfer moves the bytes of d from machine src to machine dst: encode in
// src's format, send over the network, convert format if needed, decode into
// dst's local store. The encode/convert/decode all really happen. When dst
// still holds a stale copy of the object (retained at invalidation), the
// codec ships a patch of just the changed words if that is smaller; and a
// pending task-dispatch control message for this link is folded into the
// data message instead of traveling alone. The payload converts like a full
// image either way, but the swap cost is charged only for the words that
// moved. It returns errSourceDied when src crashed before the data got out —
// the caller retries against the recovered directory.
func (x *Exec) transfer(p *sim.Proc, t *core.Task, src, dst int, d *coherence.Entry, pig *dispatchMsg) error {
	if src == dst {
		return nil
	}
	obj := d.Object
	val := x.stores[src][obj]
	if val == nil {
		x.fail(fmt.Errorf("object #%d missing from owner machine %d's store", obj, src))
		return nil
	}
	dstFmt := x.plat.Machines[dst].Format
	extra, coalesced := pig.match(src, dst)
	if coalesced {
		x.dstats.CoalescedDispatches++
		x.record(trace.Event{Kind: trace.DispatchCoalesced, Task: pig.task, Src: src, Dst: dst, Bytes: extra})
	}
	var base any
	if !x.opts.NoDelta {
		base = x.stale[dst][obj]
	}
	payload, isPatch, words, err := coherence.AppendPack(nil, base, val, x.plat.Machines[src].Format, dstFmt)
	if err != nil {
		x.fail(fmt.Errorf("object #%d: %w", obj, err))
		return nil
	}
	if err := x.send(p, src, dst, len(payload)+extra); err != nil {
		return err
	}
	if isPatch {
		saved := format.WireSize(val) - len(payload)
		x.record(trace.Event{Kind: trace.MessageSent, Task: uint64(t.ID), Object: uint64(obj), Src: src, Dst: dst, Bytes: len(payload), Label: "object-delta"})
		x.record(trace.Event{Kind: trace.ObjectPatched, Task: uint64(t.ID), Object: uint64(obj), Src: src, Dst: dst, Bytes: len(payload), Saved: saved})
		x.dstats.DeltaTransfers++
		x.dstats.DeltaBytes += int64(len(payload))
		x.dstats.SavedBytes += int64(saved)
	} else {
		x.record(trace.Event{Kind: trace.MessageSent, Task: uint64(t.ID), Object: uint64(obj), Src: src, Dst: dst, Bytes: len(payload), Label: "object"})
		x.dstats.FullTransfers++
		x.dstats.FullBytes += int64(len(payload))
	}
	if words > 0 {
		x.convWords += words
		p.Sleep(time.Duration(words) * x.plat.ConvertPerWord)
		x.record(trace.Event{Kind: trace.Converted, Object: uint64(obj), Src: src, Dst: dst, Bytes: words})
	}
	// A shadow is a slice the simulated machine's task bodies viewed, the
	// main program's included, so the payload lands in storage of its
	// own: a copy of the shadow for a patch, a new value for an image.
	var into any
	if isPatch {
		into = format.Clone(base)
	}
	v, _, err := coherence.Unpack(into, payload, isPatch, dstFmt, dstFmt)
	if err != nil {
		x.fail(fmt.Errorf("object #%d: %w", obj, err))
		return nil
	}
	x.stores[dst][obj] = v
	delete(x.stale[dst], obj)
	return nil
}

// Run implements rt.Exec: execute the main program on machine 0 and drive
// the simulation until every task completes.
func (x *Exec) Run(root func(rt.TC)) error {
	if x.ran {
		return fmt.Errorf("dist: Run called twice on the same executor")
	}
	x.ran = true
	if x.fplan != nil {
		for _, c := range x.fplan.Crashes {
			c := c
			x.seng.After(c.At, func() { x.crashMachine(c.Machine, "injected") })
		}
		x.seng.Spawn("fault-monitor", func(p *sim.Proc) { x.monitor(p) })
	}
	x.seng.Spawn("main", func(p *sim.Proc) {
		x.acquireCPU(p, 0)
		t := x.eng.Root()
		x.record(trace.Event{Kind: trace.TaskScheduled, Task: uint64(t.ID), Dst: 0, Label: "main"})
		x.record(trace.Event{Kind: trace.TaskStarted, Task: uint64(t.ID), Dst: 0, Label: "main"})
		held := true
		tc := &taskCtx{x: x, t: t, p: p, machine: 0, wake: x.seng.NewCond(), cpuHeld: &held}
		x.runBody(tc, root)
		x.record(trace.Event{Kind: trace.TaskCompleted, Task: uint64(t.ID), Dst: 0})
		if err := x.eng.Complete(t); err != nil {
			x.fail(err)
		}
		x.record(trace.Event{Kind: trace.TaskCommitted, Task: uint64(t.ID), Dst: 0})
		x.tasksRun++
		x.releaseCPU(0)
	})
	if err := x.seng.Run(); err != nil {
		if x.fplan != nil && strings.Contains(err.Error(), "event limit") {
			err = fmt.Errorf("%w (possible runaway failure-recovery loop: check the fault plan before raising Options.EventLimit)", err)
		}
		x.fail(err)
	}
	if x.firstError() == nil && x.eng.Live() != 0 {
		x.fail(fmt.Errorf("program ended with %d live tasks", x.eng.Live()))
	}
	return x.firstError()
}

// ObjectValue implements rt.Exec: the owner machine's version after Run.
func (x *Exec) ObjectValue(obj access.ObjectID) any {
	d := x.dir.Entry(obj)
	if d == nil {
		return nil
	}
	return x.stores[d.Owner][obj]
}

// taskCtx implements rt.TC for one running task (or the main program).
type taskCtx struct {
	x       *Exec
	t       *core.Task
	p       *sim.Proc
	machine int
	wake    *sim.Cond
	// cpuHeld mirrors whether this task's process currently holds its
	// machine's processor, so the machineDied unwind knows whether to
	// release it. Shared with runTask's local (inline children reuse the
	// creator's flag — they run on the creator's process).
	cpuHeld *bool
}

// CoreTask implements rt.TC.
func (tc *taskCtx) CoreTask() *core.Task { return tc.t }

// Machine implements rt.TC.
func (tc *taskCtx) Machine() int { return tc.machine }

// engineWait performs an engine operation that may block; while blocked the
// task releases its processor so other tasks can run on this machine.
func (tc *taskCtx) engineWait(register func(wake func()) (bool, error)) error {
	done := false
	ok, err := register(func() {
		done = true
		tc.wake.Broadcast()
	})
	if err != nil {
		return err
	}
	if ok {
		return nil
	}
	tc.x.releaseCPU(tc.machine)
	*tc.cpuHeld = false
	for !done {
		tc.wake.Wait(tc.p, "engine-wait")
		tc.x.checkAlive(tc.machine)
	}
	tc.x.acquireCPU(tc.p, tc.machine)
	*tc.cpuHeld = true
	tc.x.checkAlive(tc.machine)
	return nil
}

// Access implements rt.TC: grant the access, make the object local, return
// the machine-local version (the paper's global-to-local translation).
func (tc *taskCtx) Access(obj access.ObjectID, m access.Mode) (any, error) {
	err := tc.engineWait(func(wake func()) (bool, error) {
		return tc.x.eng.Access(tc.t, obj, m, wake)
	})
	if err != nil {
		return nil, err
	}
	// The initial immediate declarations were fetched before the task
	// started; converted, commuting or root accesses may still need a
	// fetch. A commuting access reads and updates the current value.
	read := m.Has(access.Read) || m.Has(access.Commute)
	write := m.Has(access.Write) || m.Has(access.Commute)
	tc.x.fetchObject(tc.p, tc.t, obj, tc.machine, read, write, nil)
	v, exists := tc.x.stores[tc.machine][obj]
	if !exists {
		return nil, fmt.Errorf("task %d: object #%d not present on machine %d after fetch", tc.t.ID, obj, tc.machine)
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

// Convert implements rt.TC: promote deferred rights, then move the object
// here so the upcoming accesses are local.
func (tc *taskCtx) Convert(obj access.ObjectID, which access.Mode) error {
	return tc.engineWait(func(wake func()) (bool, error) {
		return tc.x.eng.Convert(tc.t, obj, which, wake)
	})
}

// Retract implements rt.TC.
func (tc *taskCtx) Retract(obj access.ObjectID, which access.Mode) error {
	return tc.x.eng.Retract(tc.t, obj, which)
}

// Create implements rt.TC: the withonly-do construct.
func (tc *taskCtx) Create(decls []access.Decl, opts rt.TaskOpts, body func(rt.TC)) error {
	tc.x.checkAlive(tc.machine)
	pl := &payload{body: body, opts: opts, creator: tc.machine, machine: -1}
	if tc.x.liveUser >= tc.x.opts.MaxLiveTasks {
		pl.inline = true
		pl.ready = tc.x.seng.NewCond()
	} else {
		tc.x.liveUser++
	}
	t, err := tc.x.eng.Create(tc.t, decls, pl)
	if err != nil {
		if !pl.inline {
			tc.x.liveUser--
		}
		return err
	}
	tc.x.record(trace.Event{Kind: trace.TaskCreated, Task: uint64(t.ID), Label: opts.Label})
	if !pl.inline {
		return nil
	}

	// Inline execution: wait (without the processor) for the child's
	// declarations to enable, then run it here as part of this task.
	if !pl.isReady {
		tc.x.releaseCPU(tc.machine)
		*tc.cpuHeld = false
		for !pl.isReady {
			pl.ready.Wait(tc.p, "inline-ready")
			tc.x.checkAlive(tc.machine)
		}
		tc.x.acquireCPU(tc.p, tc.machine)
		*tc.cpuHeld = true
		tc.x.checkAlive(tc.machine)
	}
	tc.x.record(trace.Event{Kind: trace.TaskScheduled, Task: uint64(t.ID), Dst: tc.machine, Label: opts.Label})
	tc.x.fetchAll(tc.p, t, tc.machine, nil)
	tc.x.record(trace.Event{Kind: trace.TaskFetched, Task: uint64(t.ID), Dst: tc.machine, Label: opts.Label})
	if err := tc.x.eng.Start(t); err != nil {
		tc.x.fail(err)
		return err
	}
	tc.x.record(trace.Event{Kind: trace.TaskStarted, Task: uint64(t.ID), Dst: tc.machine, Label: opts.Label})
	child := &taskCtx{x: tc.x, t: t, p: tc.p, machine: tc.machine, wake: tc.x.seng.NewCond(), cpuHeld: tc.cpuHeld}
	if opts.Cost > 0 {
		tc.p.Sleep(time.Duration(opts.Cost / tc.x.plat.Machines[tc.machine].Speed * 1e9))
	}
	tc.x.runBody(child, body)
	tc.x.record(trace.Event{Kind: trace.TaskCompleted, Task: uint64(t.ID), Dst: tc.machine})
	if err := tc.x.eng.Complete(t); err != nil {
		tc.x.fail(err)
		return err
	}
	tc.x.record(trace.Event{Kind: trace.TaskCommitted, Task: uint64(t.ID), Dst: tc.machine})
	tc.x.tasksRun++
	return nil
}

// Alloc implements rt.TC: the object is born on the allocating machine.
func (tc *taskCtx) Alloc(initial any, label string) (access.ObjectID, error) {
	if format.KindOf(initial) == format.KindInvalid {
		return 0, fmt.Errorf("alloc %q: unsupported object type %T (objects must be format-encodable to cross machines)", label, initial)
	}
	id := tc.x.nextObj
	tc.x.nextObj++
	tc.x.stores[tc.machine][id] = initial
	tc.x.dir.Alloc(id, tc.machine, label)
	tc.x.eng.RegisterObject(tc.t, id)
	return id, nil
}

// Charge implements rt.TC: dynamic work takes virtual time at this machine's
// speed.
func (tc *taskCtx) Charge(work float64) {
	if work > 0 {
		tc.p.Sleep(time.Duration(work / tc.x.plat.Machines[tc.machine].Speed * 1e9))
		tc.x.checkAlive(tc.machine)
	}
}

var _ rt.Exec = (*Exec)(nil)
var _ rt.TC = (*taskCtx)(nil)
