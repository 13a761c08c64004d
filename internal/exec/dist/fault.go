// Fault tolerance for the distributed executor: failure detection by
// virtual-time heartbeats, a reliable (ack/retry) data plane over the lossy
// fault.Network, and recovery of a crashed machine's state by directory
// reconstruction and deterministic task re-execution.
//
// The recovery argument comes straight from the language: a Jade task is a
// pure function of its declared read set, so re-running it on a surviving
// machine reproduces the deterministic serial semantics bit for bit. The
// dependency engine's grants survive a crash — no conflicting task can have
// observed a lost attempt's partial writes, because the accesses that would
// let it run are still held by the task being re-executed.
//
// Crashes are fail-stop and the declared-dead verdict is authoritative: a
// live machine the detector wrongly suspects (its heartbeats swallowed by
// loss or a partition) is fenced — forcibly crashed — so recovery never
// races a machine that is secretly still running.
package dist

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/access"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/format"
	"repro/internal/sim"
	"repro/internal/trace"
)

// machineDied aborts a simulated process whose machine has crashed. It is
// panicked by checkAlive at the checkpoints after every park and caught by
// runTask's unwind (which releases the processor and the per-attempt
// accounting) and by recoverMachine (which retries the pass next round).
type machineDied struct{ machine int }

// cadence paces the failure detector's probes and the reliable send's
// backoff: the same figures the tcp transport and the live executor use.
var cadence = fault.DefaultCadence()

// errSourceDied reports that the source of an in-progress transfer crashed
// before the data got out. The fetch loops treat it as "wait for recovery to
// repair the directory, then retry from the new copy set".
var errSourceDied = fmt.Errorf("dist: source machine crashed mid-transfer")

// checkAlive is the crash checkpoint: a process of machine m calls it after
// every operation that parked (sleep, resource wait, condition wait). If m
// died while the process was parked, the process unwinds via machineDied.
// No-op on fault-free runs and for the uncrashable machine 0.
func (x *Exec) checkAlive(m int) {
	if x.dead != nil && x.dead[m] {
		panic(machineDied{machine: m})
	}
}

// send is the reliable data plane: deliver size bytes from src to dst,
// retrying lost or blocked attempts with exponential backoff. It returns
// errSourceDied when src has crashed (the caller re-resolves the source) and
// unwinds via checkAlive when dst crashes (the caller's process is doomed
// anyway — except during recovery, where recoverMachine catches the abort).
// Without a fault plan it degenerates to the raw network send.
func (x *Exec) send(p *sim.Proc, src, dst, size int) error {
	if x.fnet == nil {
		x.net.Send(p, src, dst, size)
		return nil
	}
	backoff := cadence.RetryBackoff
	maxBackoff := 16 * backoff
	for {
		x.checkAlive(dst)
		if x.dead[src] {
			return errSourceDied
		}
		if x.fnet.TrySend(p, src, dst, size) {
			return nil
		}
		x.fstats.MessagesRetried++
		x.record(trace.Event{Kind: trace.MessageRetried, Src: src, Dst: dst, Bytes: size})
		p.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// waitOwnerAlive parks the fetching process on machine m until d's owner is
// a live machine (recovery broadcasts after each directory repair).
func (x *Exec) waitOwnerAlive(p *sim.Proc, d *coherence.Entry, m int) {
	if x.fnet == nil {
		return
	}
	for x.dead[d.Owner] {
		x.recovered.Wait(p, "owner-recovery")
		x.checkAlive(m)
	}
}

// logInput snapshots d's value as task t first observes it on machine m —
// sender-based input logging, homed (conceptually) at the creator's machine.
// Called before a write grant bumps the version, so the snapshot is filed
// under the generation it shows. zeroed marks the fresh buffer of a
// write-only migration, which is no generation's contents.
func (x *Exec) logInput(t *core.Task, d *coherence.Entry, m int, zeroed bool) {
	if x.inputs == nil || t == x.eng.Root() {
		return
	}
	if zeroed {
		x.inputs.logFresh(t.ID, d.Object, format.ZeroLike(x.stores[m][d.Object]))
	} else {
		x.inputs.log(t.ID, d.Object, d.Version, x.stores[m][d.Object])
	}
}

// crashMachine makes machine m fail-stop at the current virtual time: its
// network interface goes silent (fault.Network.Kill) and its memory — object
// copies and shadows — is lost. Processes of m unwind at their next alive
// checkpoint. cause is "injected" for scripted crashes and "fenced" for
// false suspicions the detector converts into real crashes to stay safe.
func (x *Exec) crashMachine(m int, cause string) {
	if x.dead == nil || m <= 0 || m >= len(x.dead) || x.dead[m] {
		return
	}
	x.dead[m] = true
	x.crashedAt[m] = x.seng.Now()
	x.fnet.Kill(m)
	x.stores[m] = map[access.ObjectID]any{}
	x.stale[m] = map[access.ObjectID]any{}
	if cause == "injected" {
		x.fstats.CrashesInjected++
	}
	x.record(trace.Event{Kind: trace.MachineCrashed, Src: m, Dst: m, Label: cause})
}

// monitor is the failure detector: a process on machine 0 that probes every
// machine each heartbeat interval and recovers the ones found dead. It exits
// when the program has no live tasks left (or has already failed).
func (x *Exec) monitor(p *sim.Proc) {
	hb := x.plat.HeartbeatBytes
	if hb <= 0 {
		hb = 32
	}
	for x.eng.Live() > 0 && x.firstError() == nil {
		p.Sleep(cadence.HeartbeatInterval)
		for m := 1; m < len(x.plat.Machines); m++ {
			if x.firstError() != nil {
				return
			}
			if x.dead[m] {
				// Already-dead machines need no probe; finish any recovery a
				// previous round left undone (a further crash can interrupt a
				// recovery pass partway — both phases are idempotent).
				x.noteCrash(m)
				if !x.buried[m] {
					x.recoverMachine(p, m)
				}
				continue
			}
			if !x.probe(p, m, hb) {
				x.suspect(p, m)
			}
		}
	}
}

// probe pings machine m up to the cadence's retry budget, doubling the
// timeout after each miss, and reports whether any ping/ack round trip
// completed.
func (x *Exec) probe(p *sim.Proc, m, hb int) bool {
	timeout := cadence.HeartbeatTimeout
	for a := 0; a < cadence.HeartbeatRetries; a++ {
		x.fstats.HeartbeatsSent++
		ok := x.fnet.TrySend(p, 0, m, hb)
		if ok {
			x.fstats.HeartbeatsSent++
			ok = x.fnet.TrySend(p, m, 0, hb)
		}
		if ok {
			return true
		}
		p.Sleep(timeout)
		timeout *= 2
	}
	return false
}

// noteCrash records the detector's first observation of m's death.
func (x *Exec) noteCrash(m int) {
	if x.noticed[m] {
		return
	}
	x.noticed[m] = true
	x.fstats.CrashesDetected++
	x.record(trace.Event{Kind: trace.CrashDetected, Src: m, Dst: m,
		Label: fmt.Sprintf("crashed at %v", time.Duration(x.crashedAt[m]))})
}

// suspect handles a machine that failed every probe. If it actually crashed
// (possibly mid-probe), this is a true detection; if it is alive but
// unreachable, it is fenced — the declared-dead verdict must be
// authoritative for recovery to be safe.
func (x *Exec) suspect(p *sim.Proc, m int) {
	if !x.dead[m] {
		x.fstats.FalseSuspicions++
		x.crashMachine(m, "fenced")
	}
	x.noteCrash(m)
	x.recoverMachine(p, m)
}

// recoverMachine rebuilds the system after machine m's crash: repair the
// object directory so every object again has a live owner holding its
// committed contents, then re-dispatch m's in-flight tasks to surviving
// machines. The pass runs on the monitor's process; if a further crash kills
// a machine the pass is relying on, the pass aborts (machineDied) and the
// next monitor round retries it — both phases are idempotent.
func (x *Exec) recoverMachine(p *sim.Proc, m int) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(machineDied); !ok {
				panic(r)
			}
		}
	}()
	x.sweepDirectory(p)
	x.redispatchOrphans(m)
	x.buried[m] = true
	x.fstats.RecoveryTime += time.Duration(x.seng.Now() - x.crashedAt[m])
	// Unblock everyone parked on the repaired state: fetchers waiting for a
	// live owner, and fetchers whose chosen source died mid-wave.
	x.recovered.Broadcast()
	objs := make([]access.ObjectID, 0, len(x.fetches))
	for obj := range x.fetches {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, obj := range objs {
		x.fetches[obj].cond.Broadcast()
	}
}

// sweepDirectory repairs every directory entry touched by dead machines:
// dead readers leave the copy sets, and entries owned by a dead machine get
// a live owner holding the committed contents, reconstructed by — in order
// of preference — promoting a surviving read copy, restoring a surviving
// stale copy of exactly the committed generation, or deterministically
// replaying the committed writer from its logged inputs. Generations whose
// writer never committed are rolled back first: the writer re-executes from
// scratch, so the directory must describe the last committed state.
func (x *Exec) sweepDirectory(p *sim.Proc) {
	var orphaned []access.ObjectID
	for m, dead := range x.dead {
		if dead {
			orphaned = append(orphaned, x.dir.LoseMachine(m)...)
		}
	}
	sort.Slice(orphaned, func(i, j int) bool { return orphaned[i] < orphaned[j] })
	for obj, pm := range x.planned {
		for c := range pm {
			if x.dead[c] {
				delete(pm, c)
			}
		}
		if len(pm) == 0 {
			delete(x.planned, obj)
		}
	}
	for _, obj := range orphaned {
		d := x.dir.Entry(obj)
		// Invariant 1: promote a surviving read copy — it holds the committed
		// contents by construction (copies are invalidated before a writer
		// starts a new generation). A replay below may park, and a holder
		// may have died since this pass lost the dead machines.
		promo := -1
		for _, c := range d.Holders() {
			if !x.dead[c] {
				promo = c
				break
			}
		}
		if promo >= 0 {
			x.dir.Promote(d, promo)
			x.fstats.ObjectsRebuilt++
			x.record(trace.Event{Kind: trace.ObjectRebuilt, Object: uint64(obj), Dst: promo, Label: d.Label + " (promoted copy)"})
			continue
		}
		// No live copy. Roll back uncommitted generations: their writer is
		// being re-executed and will produce them again. What remains is the
		// committed generation — a committed writer's output, or generation 0
		// (the Alloc image) if no write ever committed.
		writer, committedVer := x.dir.LastCommittedWriter(d, 0)
		x.dir.Rollback(d, committedVer)
		x.inputs.forget(obj)
		// Invariant 2: a stale copy frozen at exactly the committed generation
		// is the committed contents (it is the pre-invalidation value, and
		// the directory recorded the generation it belonged to).
		rest := -1
		for c := range x.plat.Machines {
			if x.dead[c] {
				continue
			}
			if _, ok := x.stale[c][obj]; ok {
				if gen, _ := d.ShadowGen(c); gen == committedVer {
					rest = c
					break
				}
			}
		}
		if rest >= 0 {
			x.stores[rest][obj] = x.stale[rest][obj]
			delete(x.stale[rest], obj)
			x.dir.Promote(d, rest)
			x.fstats.ObjectsRebuilt++
			x.record(trace.Event{Kind: trace.ObjectRebuilt, Object: uint64(obj), Dst: rest, Label: d.Label + " (restored from shadow)"})
			continue
		}
		if writer == nil {
			x.fail(fmt.Errorf("dist: object #%d (%s): initial contents lost with machine %d and no surviving copy, shadow or committed writer to reconstruct them", obj, d.Label, d.Owner))
			continue
		}
		// Invariant 3: the committed writer is a pure function of its logged
		// inputs — replay it to re-derive the contents.
		x.replayTask(p, writer, d)
	}
}

// replayTask re-derives d's committed contents by re-running its committed
// writer's body against the writer's logged input snapshots on a surviving
// machine. The replay is charged like the original execution (input shipping
// plus the body's cost at the host's speed) and runs at recovery priority —
// it does not queue for the host's processor.
func (x *Exec) replayTask(p *sim.Proc, w *core.Task, d *coherence.Entry) {
	obj := d.Object
	lg := x.inputs.inputs(w.ID)
	pl, _ := w.Payload.(*payload)
	if lg == nil || pl == nil {
		x.fail(fmt.Errorf("dist: cannot reconstruct object #%d (%s): committed writer task %d left no input log", obj, d.Label, w.ID))
		return
	}
	// The log is homed where the task was created.
	home := pl.creator
	if x.dead[home] {
		x.fail(fmt.Errorf("dist: cannot reconstruct object #%d (%s): input log of task %d was homed on crashed machine %d", obj, d.Label, w.ID, home))
		return
	}
	// Host the replay on the least-loaded live machine (lowest index on ties).
	r := -1
	for c := range x.plat.Machines {
		if x.dead[c] {
			continue
		}
		if r == -1 || x.pendingWork[c] < x.pendingWork[r] {
			r = c
		}
	}
	// Ship the logged inputs home → r.
	objs := make([]access.ObjectID, 0, len(lg))
	for o := range lg {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, o := range objs {
		if home != r {
			if err := x.send(p, home, r, format.WireSize(lg[o])); err != nil {
				x.fail(fmt.Errorf("dist: replay of task %d: log home machine %d crashed: %w", w.ID, home, err))
				return
			}
		}
	}
	speed := x.plat.Machines[r].Speed
	if pl.opts.Cost > 0 {
		p.Sleep(time.Duration(pl.opts.Cost / speed * 1e9))
		x.checkAlive(r)
	}
	// Dynamic work is billed at the host's speed until the host dies; the
	// pass then unwinds at the checkpoint below, discarding the result.
	out, err := replay(w, r, lg, pl.body, func(work float64) {
		if !x.dead[r] {
			p.Sleep(time.Duration(work / speed * 1e9))
		}
	}, obj)
	x.checkAlive(r)
	if err != nil {
		x.fail(fmt.Errorf("dist: %w", err))
		return
	}
	x.stores[r][obj] = out
	x.dir.Promote(d, r)
	x.fstats.TasksReplayed++
	x.fstats.ObjectsRebuilt++
	x.record(trace.Event{Kind: trace.TaskReexecuted, Task: uint64(w.ID), Object: uint64(obj), Dst: r, Label: "replay " + pl.opts.Label})
	x.record(trace.Event{Kind: trace.ObjectRebuilt, Object: uint64(obj), Dst: r, Label: d.Label + " (replayed writer)"})
}

// redispatchOrphans re-places every in-flight task that was assigned to the
// crashed machine m. The task's engine lifecycle is untouched: its grants
// survive the crash, so conflicting tasks stay blocked until the re-executed
// attempt completes — which is exactly what makes re-running from the
// declared read set safe. The crashed attempt's process unwinds on its own
// at its next checkpoint; bumping pl.attempt keeps its accounting separate.
func (x *Exec) redispatchOrphans(m int) {
	var orphans []*core.Task
	for t, pl := range x.liveTasks {
		if pl.machine == m && !pl.inline && t.State() != core.Done {
			orphans = append(orphans, t)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].ID < orphans[j].ID })
	for _, t := range orphans {
		pl := x.liveTasks[t]
		pl.attempt++
		nm, err := x.place(t, pl)
		if err != nil {
			x.fail(err)
			continue
		}
		pl.machine = nm
		x.pendingWork[nm] += pl.opts.Cost
		x.pendingTasks[nm]++
		x.fstats.TasksReexecuted++
		x.record(trace.Event{Kind: trace.TaskReexecuted, Task: uint64(t.ID), Src: m, Dst: nm, Label: pl.opts.Label})
		attempt := pl.attempt
		x.seng.Spawn(fmt.Sprintf("task-%d-r%d", t.ID, attempt), func(p *sim.Proc) {
			x.runTask(p, t, pl, attempt)
		})
	}
}
