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
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/format"
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

// workerTarget resolves machine m as a target for coherence traffic,
// refusing dead or departed members (a draining worker still carries it:
// it finishes its tasks).
func (x *Exec) workerTarget(m int) (*workerLink, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	w := x.workerAtLocked(m)
	if w == nil {
		return nil, fmt.Errorf("live: no worker %d", m)
	}
	if w.state != memberActive && w.state != memberDraining {
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

// ---- retrying coherence wrapper --------------------------------------------

// retryOnLoss runs op — a coherence operation on behalf of machine m —
// under x.coh, waiting out a membership epoch and retrying whenever op
// fails because a crashed worker's recovery is in flight. It returns
// errWorkerLost (wrapped) only when m itself is gone or the run is
// unwinding; losses of OTHER workers are retried here. m == 0 is the
// coordinator, which cannot be lost.
func (x *Exec) retryOnLoss(m int, op func() error) error {
	for {
		seen := x.epochNow()
		x.coh.Lock()
		err := op()
		x.coh.Unlock()
		if err == nil || !errors.Is(err, errWorkerLost) {
			return err
		}
		if m != 0 {
			if _, gone := x.workerTarget(m); gone != nil {
				return err
			}
		}
		if !x.awaitEpoch(seen) {
			return err
		}
	}
}

// stageRetry stages every immediately-declared object of t on machine m
// before the task starts. Commuting declarations are fetched at Access
// time instead, like the simulated executor: another commuting task may
// legitimately hold the object right now. A non-nil car piggybacks the
// task's dispatch frame on the first push to m; attachment survives
// retries (an attached frame either reached m, or m is lost and the caller
// rebuilds the carrier).
//
// Every input is logged before anything is pushed. The dispatch rides the
// first push, so from then on the body may be running on m and writing the
// objects m already owns; an input pulled from m after that would race the
// body and log its half-done writes as what the task observed.
func (x *Exec) stageRetry(t *core.Task, m int, car *dispatchCarrier) error {
	return x.retryOnLoss(m, func() error {
		decls := t.ImmediateDecls()
		for _, d := range decls {
			if m == 0 || d.Mode.Has(access.Commute) {
				continue // the coordinator's own inputs are not logged
			}
			if e := x.dir.Entry(d.Object); e != nil {
				if err := x.logInputLocked(t, e, m, d.Mode.Has(access.Read), d.Mode.Has(access.Write)); err != nil {
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
	})
}

// ---- input logging (write replay support) ---------------------------------

// logInputLocked captures, first-encounter per (task, object), the
// value a worker-bound task observes for d: the coordinator-side
// input log that makes a completed task replayable after its worker
// dies with the only copy of its output. Write-only grants log a
// zeroed buffer (the task may not read the old contents); everything
// else logs the cache value after syncing it to the current version —
// so a log is always a valid replay base. Requires x.coh.
func (x *Exec) logInputLocked(t *core.Task, d *coherence.Entry, m int, read, write bool) error {
	if x.inputs.Logged(t.ID, d.Object) {
		return nil
	}
	if write && !read && !d.Holds(m) {
		// Shape only: the grant ships a zeroed buffer.
		x.inputs.LogFresh(t.ID, d.Object, format.ZeroLike(x.vals[d.Object]))
		return nil
	}
	if err := x.syncCacheLocked(d); err != nil {
		return err
	}
	x.inputs.Log(t.ID, d.Object, d.Version, x.vals[d.Object])
	return nil
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
		if started {
			x.bg.Add(1) // under x.mu: see Exec.bg
		}
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
	defer x.bg.Done()
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
	var replayed int
	x.coh.Lock()
	owned := x.loseMachineLocked(w.m)
	for _, obj := range owned {
		d := x.dir.Entry(obj)
		how := "cache current"
		if x.cacheVer[obj] != d.Version {
			// The cache froze at an older generation. Replay the last
			// COMPLETED writer in the window to re-derive the committed
			// value; writers that had not completed are re-executed by
			// the orphan pass and roll the object forward again.
			if writer, _ := x.dir.LastCommittedWriter(d, x.cacheVer[obj]); writer != nil {
				if err := x.replayLocked(writer, obj); err != nil {
					x.coh.Unlock()
					x.failFatal(fmt.Errorf("live: recovering object #%d (%s) after worker %d died: %w", obj, d.Label, w.m, err))
					return
				}
				replayed++
				how = fmt.Sprintf("replayed task %d", writer.ID)
			} else {
				how = "restored committed cache"
			}
		}
		x.setCacheVerLocked(d, d.Version)
		x.dir.Promote(d, 0)
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
	x.fstats.ObjectsRebuilt += len(owned)
	x.fstats.RecoveryTime += time.Since(t0)
	x.statMu.Unlock()
	x.bumpEpoch()
}

// loseMachineLocked drops machine m from the directory and from the
// stale-copy images, and returns the objects it owned. Requires x.coh.
func (x *Exec) loseMachineLocked(m int) []access.ObjectID {
	for k := range x.stale {
		if k.m == m {
			delete(x.stale, k)
		}
	}
	return x.dir.LoseMachine(m)
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
	body := pl.body
	if body == nil && pl.kind != "" {
		body, _ = Kinds.resolve(pl.kind, pl.kindArgs)
	}
	if body == nil {
		return fmt.Errorf("task %d (%s) has neither a retained closure nor a kind; cannot replay", t.ID, pl.opts.Label)
	}
	out, err := coherence.Replay(t, 0, x.inputs.Inputs(t.ID), body, nil, obj)
	if err != nil {
		return err
	}
	x.vals[obj] = out
	x.record(trace.Event{Kind: trace.TaskReexecuted, Task: uint64(t.ID), Label: fmt.Sprintf("replay object #%d", obj)})
	return nil
}

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
	if x.closing {
		x.mu.Unlock()
		return fmt.Errorf("live: executor is shutting down")
	}
	if w.state != memberActive {
		st := w.state
		x.mu.Unlock()
		return fmt.Errorf("live: worker %d is %v; only an active worker can drain", m, st)
	}
	w.state = memberDraining
	idle := w.pendingTasks == 0
	if idle {
		x.bg.Add(1)
	}
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
	defer x.bg.Done()
	x.coh.Lock()
	for _, obj := range x.loseMachineLocked(w.m) {
		d := x.dir.Entry(obj)
		if err := x.syncCacheLocked(d); err != nil {
			// It died mid-drain; crash recovery re-lists what it still owns.
			x.coh.Unlock()
			return
		}
		x.dir.Promote(d, 0)
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
