// Live-executor fault tolerance: failure detection, deterministic
// crash recovery, and elastic membership.
//
// The transport IS the failure detector. The tcp substrate already
// heartbeats each session and declares it dead after the fault.Cadence
// deadline; the coordinator observes that verdict as a Recv/Send error
// on the worker's connection and calls workerLost. There is no second
// liveness protocol stacked on top — one cadence, one verdict.
//
// Recovery leans on the same property the simulated executor's
// fault package exploits: a Jade task is a pure function of its
// declared read set, so a task can be deterministically re-executed (or
// replayed from logged inputs) and must produce bit-identical output.
// On a confirmed death the coordinator:
//
//  1. Fences the session (transport.Fencer), so late frames from the
//     dead worker — a TTaskDone racing the verdict, a stale pull reply —
//     are dropped, never applied. A falsely-suspected worker that is
//     still alive cannot resume the fenced session; it must redial and
//     rejoin as a NEW member.
//  2. Rebuilds every directory entry owned by the dead worker. If the
//     coordinator's relay cache is current, it is promoted. Otherwise
//     the last COMPLETED writer of the object is replayed from the
//     coordinator-side input log (logInputLocked captures every value a
//     worker-bound task observes, at grant time) to re-derive the lost
//     version. Writers that had not completed are simply re-executed.
//  3. Re-places every in-flight task that was dispatched to the dead
//     worker (pl.sent) onto surviving capacity and bumps the membership
//     epoch so parked coherence operations retry.
//
// Membership is elastic: Admit splices a freshly-dialed worker into a
// running executor (placement rebalances onto it via the epoch bump),
// and Drain retires one gracefully — no new tasks, in-flight tasks
// finish, owned objects sync back, then TBye.
package live

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// errWorkerLost marks coherence/RPC failures caused by a worker dying
// mid-operation. Paths that see it park on the membership epoch and
// retry after recovery has rebuilt the directory, instead of failing
// the whole run.
var errWorkerLost = errors.New("live: worker lost")

// memberState is the lifecycle of one worker's membership.
type memberState int

const (
	// memberActive: in service, eligible for placement.
	memberActive memberState = iota
	// memberDraining: graceful departure requested; finishes in-flight
	// tasks, receives no new ones.
	memberDraining
	// memberDead: declared dead; session fenced, recovery ran (or runs).
	memberDead
	// memberLeft: drained and released with TBye.
	memberLeft
)

func (s memberState) String() string {
	switch s {
	case memberActive:
		return "active"
	case memberDraining:
		return "draining"
	case memberDead:
		return "dead"
	case memberLeft:
		return "left"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// histEntry records one write grant on an object: the directory version
// the grant created and the task it was granted to. The recovery sweep
// replays the LAST completed writer in the window (cacheVer, version]
// to re-derive a value that died with its owner.
type histEntry struct {
	ver  uint64
	task *core.Task
}

// ---- membership accessors -------------------------------------------------

// workerAtLocked returns the link for machine m. Requires x.mu.
func (x *Exec) workerAtLocked(m int) *workerLink {
	if m < 1 || m > len(x.workers) {
		return nil
	}
	return x.workers[m-1]
}

// workerAt returns the link for machine m, or nil.
func (x *Exec) workerAt(m int) *workerLink {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.workerAtLocked(m)
}

// workerList snapshots the membership slice (it grows under x.mu as
// workers join; rangers must not alias the live backing array).
func (x *Exec) workerList() []*workerLink {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append([]*workerLink(nil), x.workers...)
}

// machineCount returns the number of machine indices ever assigned
// (indices are never reused, so this bounds every machine slice).
func (x *Exec) machineCount() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.workers)
}

// memberUsable reports whether w may still carry coherence traffic
// (active or draining — a draining worker finishes its tasks).
func (x *Exec) memberUsable(w *workerLink) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	return w.state == memberActive || w.state == memberDraining
}

// workerTarget resolves machine m as a target for coherence traffic,
// refusing dead or departed members.
func (x *Exec) workerTarget(m int) (*workerLink, error) {
	w := x.workerAt(m)
	if w == nil {
		return nil, fmt.Errorf("live: no worker %d", m)
	}
	if !x.memberUsable(w) {
		return nil, fmt.Errorf("live: worker %d (%s) is gone: %w", m, w.name, errWorkerLost)
	}
	return w, nil
}

// Members reports the current membership counts by state.
func (x *Exec) Members() (active, draining, dead, left int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, w := range x.workers {
		switch w.state {
		case memberActive:
			active++
		case memberDraining:
			draining++
		case memberDead:
			dead++
		case memberLeft:
			left++
		}
	}
	return
}

// ---- membership epoch -----------------------------------------------------

// epochNow reads the membership epoch. Operations that may park on a
// membership change capture it BEFORE attempting the operation, so a
// concurrent recovery between the attempt and the wait is not missed.
func (x *Exec) epochNow() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.epoch
}

// bumpEpoch advances the membership epoch and wakes every parked
// operation: recovery finished, a worker joined, or a drain completed.
func (x *Exec) bumpEpoch() {
	x.mu.Lock()
	x.epoch++
	x.cond.Broadcast()
	x.mu.Unlock()
}

func (x *Exec) fatalClosed() bool {
	select {
	case <-x.fatal:
		return true
	default:
		return false
	}
}

// awaitEpoch blocks until the membership epoch advances past seen,
// returning false when the run is unwinding instead.
func (x *Exec) awaitEpoch(seen uint64) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	for x.epoch == seen && !x.closing && !x.fatalClosed() {
		x.cond.Wait()
	}
	return x.epoch != seen
}

// ---- retrying coherence wrappers ------------------------------------------

// fetchAllRetry stages t's declared objects on machine m, waiting out a
// membership epoch whenever a crashed worker's recovery is in flight.
// It returns errWorkerLost (wrapped) only when m itself is gone or the
// run is unwinding; losses of OTHER workers are retried internally.
// A non-nil car piggybacks the task's dispatch frame on the first push
// to m; attachment survives internal retries (an attached frame either
// reached m, or m is lost and the caller rebuilds the carrier).
func (x *Exec) fetchAllRetry(t *core.Task, m int, car *dispatchCarrier) error {
	for {
		seen := x.epochNow()
		x.coh.Lock()
		err := x.fetchAllLocked(t, m, car)
		x.coh.Unlock()
		if err == nil || !errors.Is(err, errWorkerLost) {
			return err
		}
		if m != 0 {
			if w := x.workerAt(m); w == nil || !x.memberUsable(w) {
				return err
			}
		}
		if !x.awaitEpoch(seen) {
			return err
		}
	}
}

// fetchOneRetry is fetchAllRetry for a single object (Access-time
// staging).
func (x *Exec) fetchOneRetry(t *core.Task, obj access.ObjectID, m int, read, write bool) error {
	for {
		seen := x.epochNow()
		x.coh.Lock()
		err := x.fetchToLocked(t, obj, m, read, write, nil)
		x.coh.Unlock()
		if err == nil || !errors.Is(err, errWorkerLost) {
			return err
		}
		if m != 0 {
			if w := x.workerAt(m); w == nil || !x.memberUsable(w) {
				return err
			}
		}
		if !x.awaitEpoch(seen) {
			return err
		}
	}
}

// ---- input logging (write replay support) ---------------------------------

// logInputLocked captures, first-encounter per (task, object), the
// value a worker-bound task observes for obj: the coordinator-side
// input log that makes a completed task replayable after its worker
// dies with the only copy of its output. Write-only grants log a
// zeroed buffer (the task may not read the old contents); everything
// else logs the cache value after syncing it to the current version.
// Requires x.coh.
func (x *Exec) logInputLocked(t *core.Task, obj access.ObjectID, m int, read, write bool) error {
	ins := x.inputs[t.ID]
	if ins == nil {
		ins = map[access.ObjectID]any{}
		x.inputs[t.ID] = ins
	}
	if _, ok := ins[obj]; ok {
		return nil
	}
	d := x.dir[obj]
	if write && !read && !d.copies[m] {
		// Shape only: the grant ships a zeroed buffer.
		ins[obj] = format.ZeroLike(x.vals[obj])
		return nil
	}
	if err := x.syncCacheLocked(obj); err != nil {
		return err
	}
	// Logged inputs are immutable (replayLocked clones before running
	// the body), so every task staged at the same object version shares
	// one clone. Version transitions evict the cached snapshot: the
	// directory bumps d.version on each write grant before any task can
	// observe the new contents.
	if s := x.inSnap[obj]; s != nil && s.ver == d.version {
		ins[obj] = s.val
		return nil
	}
	v := format.Clone(x.vals[obj])
	x.inSnap[obj] = &inputSnap{ver: d.version, val: v}
	ins[obj] = v
	return nil
}

// trimHistLocked drops write-history entries at or below the cached
// version: the sweep only ever replays entries newer than the cache.
// Requires x.coh.
func (x *Exec) trimHistLocked(obj access.ObjectID) {
	h := x.hist[obj]
	if len(h) == 0 {
		return
	}
	cv := x.cacheVer[obj]
	i := 0
	for i < len(h) && h[i].ver <= cv {
		i++
	}
	if i == len(h) {
		delete(x.hist, obj)
	} else if i > 0 {
		x.hist[obj] = append([]histEntry(nil), h[i:]...)
	}
}

// ---- failure detection and recovery ---------------------------------------

// workerLost handles a confirmed worker death (transport error on the
// session): exactly once, it marks the member dead, notifies the
// (possibly still-alive) worker with a best-effort TEvict, fences the
// session so late frames are dropped, releases RPC waiters, and runs
// recovery.
func (x *Exec) workerLost(w *workerLink, cause error) {
	w.lostOnce.Do(func() {
		x.mu.Lock()
		if x.closing || w.state == memberLeft {
			x.mu.Unlock()
			return
		}
		w.state = memberDead
		started := w.started
		x.mu.Unlock()
		// Best effort, before fencing kills the session: a falsely-
		// suspected worker learns it must rejoin as a new member.
		if enc, err := wire.Encode(&wire.Frame{Type: wire.TEvict}); err == nil {
			_ = w.conn.Send(enc)
		}
		if f, ok := w.conn.(transport.Fencer); ok {
			f.Fence()
		}
		w.conn.Close()
		close(w.dead)
		if started {
			go x.recoverWorker(w, cause)
		} else {
			x.bumpEpoch()
		}
	})
}

// recoverWorker rebuilds the run after worker w's death: directory
// entries it owned, then the in-flight tasks dispatched to it. Serial
// per executor (recMu): concurrent deaths recover one at a time.
func (x *Exec) recoverWorker(w *workerLink, cause error) {
	x.recMu.Lock()
	defer x.recMu.Unlock()
	t0 := time.Now()
	x.record(trace.Event{Kind: trace.CrashDetected, Dst: w.m, Label: cause.Error()})
	// Wait for the dead worker's receive loop to go quiet (the fence
	// makes its Recv error promptly): afterwards no handler can race the
	// sweep with a late completion or RPC from this worker.
	<-w.recvDone
	x.statMu.Lock()
	x.fstats.CrashesDetected++
	x.statMu.Unlock()

	// 1) Rebuild directory entries owned by the dead worker.
	var rebuilt, replayed int
	x.coh.Lock()
	for obj, d := range x.dir {
		delete(d.copies, w.m)
		x.dropShadowLocked(w.m, obj)
		if d.owner != w.m {
			continue
		}
		how := "cache current"
		if x.cacheVer[obj] != d.version {
			// The cache froze at an older generation. Replay the last
			// COMPLETED writer in the window to re-derive the committed
			// value; writers that had not completed are re-executed by
			// the orphan pass and roll the object forward again.
			var last *histEntry
			for i := range x.hist[obj] {
				e := &x.hist[obj][i]
				if e.ver > x.cacheVer[obj] && e.task != nil && e.task.State() == core.Done {
					last = e
				}
			}
			if last != nil {
				if err := x.replayLocked(last.task, obj); err != nil {
					x.coh.Unlock()
					x.failFatal(fmt.Errorf("live: recovering object #%d (%s) after worker %d died: %w", obj, d.label, w.m, err))
					return
				}
				replayed++
				how = fmt.Sprintf("replayed task %d", last.task.ID)
			} else {
				how = "restored committed cache"
			}
		}
		x.cacheVer[obj] = d.version
		d.owner = 0
		d.copies[0] = true
		delete(x.hist, obj)
		rebuilt++
		x.record(trace.Event{Kind: trace.ObjectRebuilt, Object: uint64(obj), Src: w.m, Dst: 0, Label: how})
	}
	x.coh.Unlock()

	// 2) Re-place in-flight tasks that were dispatched to the dead
	// worker. pl.sent is the ownership handshake with dispatch(): only
	// tasks whose dispatch frame was shipped are claimed here; a
	// dispatch goroutine that had not sent yet re-places its own task
	// via the epoch wait.
	type orphaned struct {
		t  *core.Task
		pl *payload
	}
	var orphans []orphaned
	x.mu.Lock()
	for _, t := range x.tasks {
		pl := t.Payload.(*payload)
		if pl.sent && pl.machine == w.m && t.State() != core.Done {
			pl.sent = false
			pl.machine = -1
			pl.attempt++
			w.pendingTasks--
			x.fleetUncharge(w.m)
			orphans = append(orphans, orphaned{t, pl})
		}
	}
	x.mu.Unlock()
	for _, o := range orphans {
		x.record(trace.Event{Kind: trace.TaskReexecuted, Task: uint64(o.t.ID), Src: w.m, Label: o.pl.opts.Label})
		go x.dispatch(o.t, o.pl)
	}

	x.statMu.Lock()
	x.fstats.TasksReexecuted += len(orphans)
	x.fstats.TasksReplayed += replayed
	x.fstats.ObjectsRebuilt += rebuilt
	x.fstats.RecoveryTime += time.Since(t0)
	x.statMu.Unlock()
	x.bumpEpoch()
}

// replayLocked re-runs a completed task's body against its logged
// inputs to re-derive the value of obj, installing the result in the
// coordinator cache. Determinism (a task is a function of its declared
// read set) makes the result bit-identical to the lost copy. Requires
// x.coh.
func (x *Exec) replayLocked(t *core.Task, obj access.ObjectID) error {
	pl, ok := t.Payload.(*payload)
	if !ok || pl == nil {
		return fmt.Errorf("task %d has no executor payload to replay", t.ID)
	}
	ins := x.inputs[t.ID]
	if ins == nil {
		return fmt.Errorf("task %d (%s) has no logged inputs to replay", t.ID, pl.opts.Label)
	}
	body := pl.body
	if body == nil && pl.kind != "" {
		body, _ = Kinds.resolve(pl.kind, pl.kindArgs)
	}
	if body == nil {
		return fmt.Errorf("task %d (%s) has neither a retained closure nor a kind; cannot replay", t.ID, pl.opts.Label)
	}
	vals := make(map[access.ObjectID]any, len(ins))
	for o, v := range ins {
		vals[o] = format.Clone(v)
	}
	rc := &replayCtx{id: t.ID, vals: vals}
	if err := runReplay(rc, body); err != nil {
		return err
	}
	out, ok := vals[obj]
	if !ok {
		return fmt.Errorf("replay of task %d (%s) produced no value for object #%d", t.ID, pl.opts.Label, obj)
	}
	x.vals[obj] = out
	x.record(trace.Event{Kind: trace.TaskReexecuted, Task: uint64(t.ID), Label: fmt.Sprintf("replay object #%d", obj)})
	return nil
}

// runReplay executes a body under the replay context, converting panics
// into errors.
func runReplay(rc *replayCtx, body func(rt.TC)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replayed body panicked: %v", r)
		}
	}()
	body(rc)
	return nil
}

// replayCtx implements rt.TC for crash replay: Access serves the logged
// input values (bodies mutate the returned slices in place, so the vals
// map accumulates the outputs); the structural operations a replayable
// task must not perform are refused.
type replayCtx struct {
	id   core.TaskID
	vals map[access.ObjectID]any
}

func (rc *replayCtx) CoreTask() *core.Task { return nil }
func (rc *replayCtx) Machine() int         { return 0 }

func (rc *replayCtx) Access(obj access.ObjectID, m access.Mode) (any, error) {
	v, ok := rc.vals[obj]
	if !ok {
		return nil, fmt.Errorf("replay of task %d accessed object #%d, which was never logged", rc.id, obj)
	}
	return v, nil
}

func (rc *replayCtx) EndAccess(access.ObjectID, access.Mode) {}
func (rc *replayCtx) ClearAccess(access.ObjectID)            {}

func (rc *replayCtx) Convert(access.ObjectID, access.Mode) error { return nil }
func (rc *replayCtx) Retract(access.ObjectID, access.Mode) error { return nil }

func (rc *replayCtx) Create([]access.Decl, rt.TaskOpts, func(rt.TC)) error {
	return fmt.Errorf("replay of task %d: a task that creates child tasks cannot be crash-replayed", rc.id)
}

func (rc *replayCtx) Alloc(any, string) (access.ObjectID, error) {
	return 0, fmt.Errorf("replay of task %d: a task that allocates objects cannot be crash-replayed", rc.id)
}

func (rc *replayCtx) Charge(float64) {}

var _ rt.TC = (*replayCtx)(nil)

// ---- elastic membership ---------------------------------------------------

// Admit splices a freshly-connected worker into a running executor: it
// completes the Hello/Welcome handshake, grows the per-machine state,
// and bumps the membership epoch so placement rebalances onto the new
// capacity. Returns the assigned machine index.
func (x *Exec) Admit(conn transport.Conn) (int, error) {
	return x.admit(conn, true)
}

// admit is Admit plus the initial-handshake path (joined=false: the
// worker was present at Run time and does not count as an elastic
// join). admitMu serializes machine-index assignment with the
// handshake, which cannot run under x.mu.
func (x *Exec) admit(conn transport.Conn, joined bool) (int, error) {
	x.admitMu.Lock()
	defer x.admitMu.Unlock()
	x.mu.Lock()
	if x.closing {
		x.mu.Unlock()
		return 0, fmt.Errorf("live: executor is shutting down")
	}
	m := x.nextMachine
	x.nextMachine++
	x.mu.Unlock()
	w, err := x.handshake(Peer{Conn: conn}, m)
	if err != nil {
		x.mu.Lock()
		x.nextMachine-- // nothing else could have advanced it: admitMu is held
		x.mu.Unlock()
		return 0, err
	}
	x.coh.Lock()
	for len(x.shadowVer) <= m {
		x.shadowVer = append(x.shadowVer, map[access.ObjectID]uint64{})
	}
	x.coh.Unlock()
	x.statMu.Lock()
	for len(x.busy) <= m {
		x.busy = append(x.busy, 0)
	}
	if joined {
		x.fstats.WorkersJoined++
	}
	x.statMu.Unlock()
	x.mu.Lock()
	x.workers = append(x.workers, w)
	w.started = true
	x.mu.Unlock()
	go x.recvLoop(w)
	x.bumpEpoch()
	return m, nil
}

// KillWorker forcibly severs worker m's session mid-run — the chaos
// harness's SIGKILL. The normal detection/recovery path takes over.
func (x *Exec) KillWorker(m int) error {
	w := x.workerAt(m)
	if w == nil {
		return fmt.Errorf("live: no worker %d to kill", m)
	}
	x.mu.Lock()
	st := w.state
	x.mu.Unlock()
	if st != memberActive && st != memberDraining {
		return fmt.Errorf("live: worker %d is already %v", m, st)
	}
	x.statMu.Lock()
	x.fstats.CrashesInjected++
	x.statMu.Unlock()
	x.record(trace.Event{Kind: trace.MachineCrashed, Dst: m, Label: "fault injection"})
	x.workerLost(w, fmt.Errorf("live: worker %d (%s) killed by fault injection", m, w.name))
	return nil
}

// Drain begins a graceful departure for worker m: placement stops
// considering it immediately; once its in-flight tasks finish, its
// owned objects are synced back and the worker is released with TBye.
// Asynchronous — the departure completes in the background.
func (x *Exec) Drain(m int) error {
	w := x.workerAt(m)
	if w == nil {
		return fmt.Errorf("live: no worker %d to drain", m)
	}
	x.mu.Lock()
	if w.state != memberActive {
		st := w.state
		x.mu.Unlock()
		return fmt.Errorf("live: worker %d is %v; only an active worker can drain", m, st)
	}
	w.state = memberDraining
	idle := w.pendingTasks == 0
	x.mu.Unlock()
	x.bumpEpoch()
	if idle {
		go x.completeDrain(w)
	}
	return nil
}

// completeDrain finishes a graceful departure once the worker is idle:
// sync every object it owns back to the coordinator, transfer
// ownership, release its copies and shadows, and say goodbye. Runs in
// its own goroutine — the sync pulls need the worker's receive loop.
func (x *Exec) completeDrain(w *workerLink) {
	x.coh.Lock()
	for obj, d := range x.dir {
		if d.owner == w.m {
			if err := x.syncCacheLocked(obj); err != nil {
				// It died mid-drain; crash recovery takes over.
				x.coh.Unlock()
				return
			}
			d.owner = 0
			d.copies[0] = true
			delete(x.hist, obj)
		}
		delete(d.copies, w.m)
		x.dropShadowLocked(w.m, obj)
	}
	x.coh.Unlock()
	x.mu.Lock()
	if w.state != memberDraining {
		x.mu.Unlock()
		return
	}
	w.state = memberLeft
	x.mu.Unlock()
	w.send(&wire.Frame{Type: wire.TBye})
	w.conn.Close()
	x.statMu.Lock()
	x.fstats.WorkersDrained++
	x.statMu.Unlock()
	x.bumpEpoch()
}
