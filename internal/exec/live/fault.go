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
// declared read set, so a task can be deterministically re-executed and
// must produce bit-identical output — and on one the live protocol adds:
// a writer's bytes reach the coordinator on the frame that releases its
// write, so the coordinator's cache holds every committed generation
// (committed ⇒ cached) and nothing a dead worker held is needed to rebuild
// what it owned. On a confirmed death the coordinator:
//
//  1. Fences the session (transport.Fencer), so late frames from the
//     dead worker — a TTaskDone racing the verdict, with the write-backs
//     it carries — are dropped, never applied. A falsely-suspected worker
//     that is still alive cannot reuse the fenced connection; it must
//     dial again and rejoin as a NEW member.
//  2. Takes over every directory entry the dead worker owned. The
//     generations above the cache were granted to tasks still running
//     there: they died uncommitted, so the object rolls back to the cached
//     generation and the cache is promoted. No input log, no replay: a
//     completed task's output is in the cache before it counts as
//     completed.
//  3. Re-places every in-flight task that was dispatched to the dead
//     worker (pl.sent) onto surviving capacity and bumps the membership
//     epoch so parked coherence operations retry.
//
// Membership is elastic: Admit splices a freshly-dialed worker into a
// running executor (placement rebalances onto it via the epoch bump),
// and Drain retires one gracefully — no new tasks, in-flight tasks
// finish (bringing home what they wrote), then TBye. A peer that dies
// during its own handshake is a lost member, not a failed run.
package live

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// errWorkerLost marks failures caused by a worker dying mid-operation.
// Paths that see it park on the membership epoch and retry after recovery
// has taken over the dead worker's objects, instead of failing the whole
// run; a handshake that sees it has lost a member, not the run.
var errWorkerLost = errors.New("live: worker lost")

// ErrClosing is returned by Admit and Drain once the program's last task
// has retired and Run is shutting membership down. A scripted or late
// membership change that loses that race has nothing left to change;
// callers treat it as "the program finished first", not as a failure.
var ErrClosing = errors.New("live: executor is shutting down")

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

// ---- membership epoch and the park list ------------------------------------

// epochNow reads the membership epoch. A step that may park on a membership
// change reads it BEFORE it tries, so a recovery that finishes between the
// attempt and the park is not missed.
func (x *Exec) epochNow() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.epoch
}

// bumpEpoch advances the membership epoch and runs every parked step:
// recovery finished, a worker joined, or a drain completed.
func (x *Exec) bumpEpoch() {
	x.mu.Lock()
	x.epoch++
	steps := x.parked
	x.parked = nil
	x.mu.Unlock()
	for _, step := range steps {
		step()
	}
}

// park runs step once the membership epoch has moved past seen: now, if it
// already has, else from the bumpEpoch that moves it. A closing or failed run
// drops the step: an unwinding run answers nothing.
func (x *Exec) park(seen uint64, step func()) {
	x.mu.Lock()
	select {
	case <-x.fatal:
		x.mu.Unlock()
		return
	default:
	}
	if x.closing {
		x.mu.Unlock()
		return
	}
	if x.epoch == seen {
		x.parked = append(x.parked, step)
		x.mu.Unlock()
		return
	}
	x.mu.Unlock()
	step()
}

// member reports whether machine m may still be answered: the coordinator,
// or a worker that is neither dead nor departed.
func (x *Exec) member(m int) bool {
	if m == 0 {
		return true
	}
	_, err := x.workerTarget(m)
	return err == nil
}

// parkOnLoss runs op — a coherence step on behalf of machine m — under
// x.coh and hands its result to done, unless op failed because an object it
// needs is still listed under a dead worker the recovery sweep has not
// reached: then the step parks and runs again once the membership has
// changed. op must fail that way before it has granted or sent anything
// (stageLocked checks every object first), so a retry starts from scratch.
// A requester that is no longer a member is not answered: its task is the
// sweep's to re-execute, and nothing is staged to it. m == 0 is the
// coordinator, which cannot be lost.
func (x *Exec) parkOnLoss(m int, op func() error, done func(error)) {
	if !x.member(m) {
		return
	}
	seen := x.epochNow()
	x.coh.Lock()
	err := op()
	x.coh.Unlock()
	if errors.Is(err, errWorkerLost) {
		x.park(seen, func() { x.parkOnLoss(m, op, done) })
		return
	}
	done(err)
}

// ---- failure detection and recovery ---------------------------------------

// workerLost handles a confirmed worker death (transport error on the
// session): exactly once, it marks the member dead, notifies the
// (possibly still-alive) worker with a best-effort TEvict, fences the
// session so late frames are dropped, and runs recovery.
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
		if started {
			go x.recoverWorker(w, cause)
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

	// 1) Take over the directory entries the dead worker owned. The cache
	// holds every generation a writer released; what lies above it was
	// granted to tasks still running on w, which step 2 re-executes.
	x.coh.Lock()
	owned := x.loseMachineLocked(w.m)
	for _, obj := range owned {
		d := x.dir.Entry(obj)
		how := "cache current"
		if x.cacheVer[obj] != d.Version {
			x.dir.Rollback(d, x.cacheVer[obj])
			how = "rolled back to the committed cache"
		}
		x.dir.Promote(d, 0)
		x.record(trace.Event{Kind: trace.ObjectRebuilt, Object: uint64(obj), Src: w.m, Dst: 0, Label: how})
	}
	x.coh.Unlock()

	// 2) Re-place in-flight tasks that were dispatched to the dead
	// worker. pl.sent is the ownership handshake with dispatch(): only
	// tasks whose dispatch frame was shipped are claimed here; a
	// dispatch that had not sent yet re-places its own task after the
	// epoch moves.
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
		x.dispatch(o.t, o.pl)
	}

	x.statMu.Lock()
	x.fstats.TasksReexecuted += len(orphans)
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
// handshake, which cannot run under x.mu. A peer that fails its handshake
// keeps the index as a dead member (x.workers[m-1] stays machine m); the
// error says whether it died (errWorkerLost) or misspoke. A closing
// executor refuses with ErrClosing and says goodbye, so a worker that
// dialed too late ends its run cleanly.
func (x *Exec) admit(conn transport.Conn, joined bool) (int, error) {
	x.admitMu.Lock()
	defer x.admitMu.Unlock()
	x.mu.Lock()
	if x.closing {
		x.mu.Unlock()
		if enc, err := wire.Encode(&wire.Frame{Type: wire.TBye}); err == nil {
			_ = conn.Send(enc) // best effort: the peer may be gone already
		}
		conn.Close()
		return 0, ErrClosing
	}
	m := x.nextMachine
	x.nextMachine++
	x.mu.Unlock()
	w, err := x.handshake(conn, m)
	x.statMu.Lock()
	for len(x.busy) <= m {
		x.busy = append(x.busy, 0)
	}
	if joined && err == nil {
		x.fstats.WorkersJoined++
	}
	x.statMu.Unlock()
	x.mu.Lock()
	x.workers = append(x.workers, w)
	w.started = err == nil
	x.mu.Unlock()
	if err != nil {
		return 0, err
	}
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
// considering it immediately; once its in-flight tasks finish — each
// bringing home what it wrote — the worker is released with TBye.
// Asynchronous — the departure completes in the background.
func (x *Exec) Drain(m int) error {
	w := x.workerAt(m)
	if w == nil {
		return fmt.Errorf("live: no worker %d to drain", m)
	}
	x.mu.Lock()
	if x.closing {
		x.mu.Unlock()
		return ErrClosing
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
// take over what it owns, release its copies and shadows, and say goodbye.
// An idle worker has released every write it was granted, so the cache
// already holds the contents of everything it owns. Runs in its own
// goroutine: the retirement that triggers it may be running on the
// worker's own receive loop, whose connection this closes.
func (x *Exec) completeDrain(w *workerLink) {
	defer x.bg.Done()
	x.coh.Lock()
	for _, obj := range x.loseMachineLocked(w.m) {
		x.dir.Promote(x.dir.Entry(obj), 0)
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
