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

// await blocks until the engine wake fires, unless the run dies first.
func (tc *mainCtx) await(ch chan struct{}) error {
	select {
	case <-ch:
		return nil
	case <-tc.x.fatal:
		return tc.x.firstError()
	}
}

// Access implements rt.TC: acquire the checked view, then stage the
// object's current value in the coordinator cache.
func (tc *mainCtx) Access(obj access.ObjectID, m access.Mode) (any, error) {
	ch := make(chan struct{})
	ok, err := tc.x.eng.Access(tc.t, obj, m, func() { close(ch) })
	if err != nil {
		return nil, err
	}
	if !ok {
		if err := tc.await(ch); err != nil {
			return nil, err
		}
	}
	read := m.HasAny(access.Read | access.Commute)
	write := m.HasAny(access.Write | access.Commute)
	if ferr := tc.x.fetchOneRetry(tc.t, obj, 0, read, write); ferr != nil {
		return nil, ferr
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
	ch := make(chan struct{})
	ok, err := tc.x.eng.Convert(tc.t, obj, which, func() { close(ch) })
	if err != nil {
		return err
	}
	if !ok {
		return tc.await(ch)
	}
	return nil
}

// Retract implements rt.TC.
func (tc *mainCtx) Retract(obj access.ObjectID, which access.Mode) error {
	return tc.x.eng.Retract(tc.t, obj, which)
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
	if err := tc.await(pl.readyCh); err != nil {
		return err
	}
	if ferr := x.fetchAllRetry(t, 0, nil); ferr != nil {
		return ferr
	}
	if err := x.eng.Start(t); err != nil {
		x.fail(err)
		return err
	}
	child := &mainCtx{x: x, t: t, heldSince: tc.heldSince}
	x.record(trace.Event{Kind: trace.TaskScheduled, Task: uint64(t.ID), Dst: 0, Label: opts.Label})
	x.record(trace.Event{Kind: trace.TaskStarted, Task: uint64(t.ID), Dst: 0, Label: opts.Label})
	x.runBody(child, body)
	x.record(trace.Event{Kind: trace.TaskCompleted, Task: uint64(t.ID), Dst: 0})
	if err := x.eng.Complete(t); err != nil {
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
	x := tc.x
	if format.KindOf(initial) == format.KindInvalid {
		return 0, fmt.Errorf("alloc %q: unsupported object type %T (portable Jade objects must be format-encodable)", label, initial)
	}
	x.mu.Lock()
	id := x.nextObj
	x.nextObj++
	x.mu.Unlock()
	x.coh.Lock()
	x.vals[id] = initial
	x.cacheVer[id] = 0
	x.dir[id] = &objDir{owner: 0, copies: map[int]bool{0: true}, label: label}
	x.coh.Unlock()
	x.eng.RegisterObject(tc.t, id)
	return id, nil
}

// Charge implements rt.TC: computation takes real time on a live run.
func (tc *mainCtx) Charge(work float64) {}

var _ rt.TC = (*mainCtx)(nil)
