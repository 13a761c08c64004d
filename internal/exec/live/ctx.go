package live

import (
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/rt"
	"repro/internal/trace"
)

// The coordinator-side rt.TC operations, each written once for "task t on
// machine m". None of them waits: an operation the engine or the membership
// must let go first registers its rest as a continuation, which runs on
// whichever goroutine fires it and hands the result to done. The handle*
// frame handlers call them with m = w.m for a worker's task, with a done that
// sends the reply; mainCtx calls them with m = 0 for the main program and the
// children it inlines, and blocks until done has run (mainCtx.wait).

// access acquires t's checked view of obj, stages the object's current value
// on machine m, and calls done with the generation a write grant started,
// which a worker's task names when it writes the object back. The staging is
// the engine's wake when the view must wait for earlier tasks.
func (x *Exec) access(t *core.Task, m int, obj access.ObjectID, mode access.Mode, done func(gen uint64, err error)) {
	read := mode.HasAny(access.Read | access.Commute)
	write := mode.HasAny(access.Write | access.Commute)
	grant := func() {
		var gen uint64
		x.parkOnLoss(m, func() error {
			if err := x.fetchToLocked(t, obj, m, read, write, nil); err != nil {
				return err
			}
			if write {
				gen = x.dir.Entry(obj).Version
			}
			return nil
		}, func(err error) { done(gen, err) })
	}
	switch ok, err := x.eng.Access(t, obj, mode, grant); {
	case err != nil:
		done(0, err)
	case ok:
		grant()
	}
}

// accessPregranted checks in an access the dispatch already granted and
// staged: the worker proceeded on the promise that the engine cannot make
// it wait. The engine still records the checkout (EndAccess bookkeeping,
// violation detection) exactly as for access.
func (x *Exec) accessPregranted(t *core.Task, obj access.ObjectID, mode access.Mode) {
	ok, err := x.eng.Access(t, obj, mode, func() {})
	if err != nil {
		// The engine's Violation hook has already recorded the failure
		// and is unwinding the run.
		return
	}
	if !ok {
		// The only legal wait causes (conflicting later child, commute
		// lock) are excluded by the worker-side spawned/mode guards.
		x.failFatal(fmt.Errorf("live: protocol invariant broken: pre-granted access of object #%d by task %d had to wait", obj, t.ID))
	}
}

// convert promotes t's deferred rights on obj to immediate, and calls done
// once machine m's task may go on. A requester that has left the membership
// by then is not answered: its task is the recovery sweep's to re-execute.
func (x *Exec) convert(t *core.Task, m int, obj access.ObjectID, which access.Mode, done func(error)) {
	ok, err := x.eng.Convert(t, obj, which, func() {
		if x.member(m) {
			done(nil)
		}
	})
	if err != nil || ok {
		done(err)
	}
}

// startInline is the start request for inline child t from its creator's
// machine m, the last of the three arrivals onReady joins: once the child's
// declarations enable, stage its objects on m, start it in the engine and
// call done with the staging's pre-grant records, for a creator on a
// worker. A child the engine refuses to start is retired on the spot, so
// its creator can carry on.
func (x *Exec) startInline(t *core.Task, pl *payload, m int, done func(grants []byte, err error)) {
	pl.start = func() {
		var grants []byte
		x.parkOnLoss(m, func() error {
			grants = x.appendPregrantsLocked(nil, t, nil)
			return x.stageLocked(t, m, nil)
		}, func(err error) {
			if err == nil {
				if err = x.eng.Start(t); err != nil {
					x.fail(err)
					if cerr := x.complete(t); cerr != nil {
						x.fail(cerr)
					}
					x.unregister(t)
				}
			}
			if err != nil {
				done(nil, err)
				return
			}
			x.record(trace.Event{Kind: trace.TaskScheduled, Task: uint64(t.ID), Dst: m, Label: pl.opts.Label})
			x.record(trace.Event{Kind: trace.TaskStarted, Task: uint64(t.ID), Dst: m, Label: pl.opts.Label})
			done(grants, nil)
		})
	}
	x.onReady(t)
}

// alloc registers an object born on machine m holding v. The coordinator
// keeps v in its cache either way: its own store when m = 0, the
// generation-0 patch base for a worker that keeps the live value.
func (x *Exec) alloc(t *core.Task, m int, v any, label string) access.ObjectID {
	x.mu.Lock()
	id := x.nextObj
	x.nextObj++
	x.mu.Unlock()
	x.coh.Lock()
	x.vals[id] = v
	x.cacheVer[id] = 0
	x.dir.Alloc(id, m, label)
	x.coh.Unlock()
	x.eng.RegisterObject(t, id)
	return id
}

// mainCtx implements rt.TC for tasks executing on the coordinator
// (machine 0): the main program and children it inlines under the
// task-creation throttle. It talks to the engine and the directory
// directly — no frames are involved for machine-0 execution, exactly as
// the paper's main program runs on the machine that owns the front end.
type mainCtx struct {
	x         *Exec
	t         *core.Task
	heldSince time.Time
}

// CoreTask implements rt.TC.
func (tc *mainCtx) CoreTask() *core.Task { return tc.t }

// Machine implements rt.TC: the coordinator is machine 0.
func (tc *mainCtx) Machine() int { return 0 }

// wait runs op, a coordinator operation for machine 0, and blocks until
// op's done has run, or until the run dies. The main program's goroutine is
// the one the coordinator may block: it is not a receive loop, and nothing
// waits for it but Run.
func (tc *mainCtx) wait(op func(done func(error))) error {
	ch := make(chan error, 1)
	op(func(err error) { ch <- err })
	select {
	case err := <-ch:
		return err
	case <-tc.x.fatal:
		return fmt.Errorf("live: run is unwinding: %w", tc.x.firstError())
	}
}

// Access implements rt.TC.
func (tc *mainCtx) Access(obj access.ObjectID, m access.Mode) (any, error) {
	err := tc.wait(func(done func(error)) {
		tc.x.access(tc.t, 0, obj, m, func(_ uint64, err error) { done(err) })
	})
	if err != nil {
		return nil, err
	}
	tc.x.coh.Lock()
	v := tc.x.vals[obj]
	tc.x.coh.Unlock()
	if v == nil {
		return nil, fmt.Errorf("task %d: access to unallocated object #%d", tc.t.ID, obj)
	}
	return v, nil
}

// EndAccess implements rt.TC.
func (tc *mainCtx) EndAccess(obj access.ObjectID, m access.Mode) {
	tc.x.eng.EndAccess(tc.t, obj, m)
}

// ClearAccess implements rt.TC.
func (tc *mainCtx) ClearAccess(obj access.ObjectID) {
	tc.x.eng.ClearAccess(tc.t, obj)
}

// Convert implements rt.TC.
func (tc *mainCtx) Convert(obj access.ObjectID, which access.Mode) error {
	return tc.wait(func(done func(error)) { tc.x.convert(tc.t, 0, obj, which, done) })
}

// Retract implements rt.TC.
func (tc *mainCtx) Retract(obj access.ObjectID, which access.Mode) error {
	return tc.x.retract(tc.t, obj, which)
}

// Create implements rt.TC. Children over the live-task bound are
// executed inline on the coordinator (§3.3 throttling — inlining rather
// than blocking keeps the throttle deadlock-free); the rest dispatch to
// workers once ready.
func (tc *mainCtx) Create(decls []access.Decl, opts rt.TaskOpts, body func(rt.TC)) error {
	x := tc.x
	if body == nil && opts.Kind == "" {
		return fmt.Errorf("create %q: nil body and no kind", opts.Label)
	}
	pl := &payload{
		kind:     opts.Kind,
		kindArgs: opts.KindArgs,
		opts:     opts,
		creator:  0,
		machine:  -1,
	}
	if body != nil {
		pl.bodyKey = x.bodies.put(body)
		// Retain the closure for crash recovery: if the executing worker
		// dies after consuming the key, the re-dispatch re-registers it.
		pl.body = body
	}
	t, err := x.createTask(tc.t, decls, pl)
	if err != nil {
		if pl.bodyKey != 0 {
			x.bodies.drop(pl.bodyKey)
		}
		return err
	}
	if !pl.inline {
		return nil
	}

	// Inline: reclaim the body (it runs here, not via dispatch), wait for
	// readiness, and execute on machine 0.
	if pl.bodyKey != 0 {
		body, _ = x.bodies.take(pl.bodyKey)
	}
	if body == nil {
		if b, ok := Kinds.resolve(opts.Kind, opts.KindArgs); ok {
			body = b
		} else {
			err := fmt.Errorf("create %q: kind %q not registered on the coordinator (inline execution)", opts.Label, opts.Kind)
			x.fail(err)
			body = func(rt.TC) {}
		}
	}
	err = tc.wait(func(done func(error)) {
		x.startInline(t, pl, 0, func(_ []byte, err error) { done(err) })
	})
	if err != nil {
		return err
	}
	child := &mainCtx{x: x, t: t, heldSince: tc.heldSince}
	x.runBody(child, body)
	x.record(trace.Event{Kind: trace.TaskCompleted, Task: uint64(t.ID), Dst: 0})
	if err := x.complete(t); err != nil {
		x.fail(err)
		return err
	}
	x.record(trace.Event{Kind: trace.TaskCommitted, Task: uint64(t.ID), Dst: 0})
	x.unregister(t)
	x.statMu.Lock()
	x.tasksRun++
	x.statMu.Unlock()
	return nil
}

// Alloc implements rt.TC: the object is born owned by the coordinator.
func (tc *mainCtx) Alloc(initial any, label string) (access.ObjectID, error) {
	if format.KindOf(initial) == format.KindInvalid {
		return 0, fmt.Errorf("alloc %q: unsupported object type %T (portable Jade objects must be format-encodable)", label, initial)
	}
	return tc.x.alloc(tc.t, 0, initial, label), nil
}

// Charge implements rt.TC: computation takes real time on a live run.
func (tc *mainCtx) Charge(work float64) {}

var _ rt.TC = (*mainCtx)(nil)
