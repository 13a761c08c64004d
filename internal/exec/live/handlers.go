package live

import (
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

// task looks up a live task by wire identifier.
func (x *Exec) task(id uint64) *core.Task {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.tasks[core.TaskID(id)]
}

// register enters a task in the table that task resolves wire ids
// against. A task's id leaves the coordinator in exactly one frame — the
// dispatch frame of a scheduled task, the create reply of an inline one —
// and the task must be in the table before that frame exists, or the
// worker's first message about it (a pre-grant notify, its completion)
// finds nothing. So each task is registered exactly once, by the step
// that precedes its frame: onReady before it starts the dispatch
// goroutine, createTask before it returns an inline child. A creator
// returning from eng.Create after its scheduled child already ran and
// retired registers nothing, so a retired task is never put back for the
// recovery sweep to mistake for one in flight.
func (x *Exec) register(t *core.Task) {
	x.mu.Lock()
	x.tasks[t.ID] = t
	x.mu.Unlock()
}

// unregister retires a task's table entry.
func (x *Exec) unregister(t *core.Task) {
	x.mu.Lock()
	delete(x.tasks, t.ID)
	x.mu.Unlock()
}

// createTask is the one path by which a withonly-do enters the engine,
// whether its creator runs on the coordinator (mainCtx.Create) or on a
// worker (handleCreate): decide inline-vs-dispatch under the creation
// throttle, create, and give the throttle count back if the engine
// refuses the task.
func (x *Exec) createTask(parent *core.Task, decls []access.Decl, pl *payload) (*core.Task, error) {
	x.mu.Lock()
	if x.liveUser >= x.opts.MaxLiveTasks {
		pl.inline = true
		pl.readyCh = make(chan struct{})
	} else {
		x.liveUser++
	}
	x.mu.Unlock()
	t, err := x.eng.Create(parent, decls, pl)
	if err != nil {
		if !pl.inline {
			x.mu.Lock()
			x.liveUser--
			x.mu.Unlock()
		}
		return nil, err
	}
	if pl.inline {
		x.register(t)
	}
	x.record(trace.Event{Kind: trace.TaskCreated, Task: uint64(t.ID), Label: pl.opts.Label})
	return t, nil
}

// recvLoop drains one worker's connection for the whole run. Handlers
// that can block (waiting for an access grant, task readiness, or the
// coherence lock) run in goroutines; everything handled inline must
// never take x.coh — a coherence-lock holder may be waiting for a pull
// reply that only this loop can route, so blocking here on coh would
// deadlock the protocol.
func (x *Exec) recvLoop(w *workerLink) {
	defer close(w.recvDone)
	for {
		msg, err := w.conn.Recv()
		if err != nil {
			x.mu.Lock()
			quiet := x.closing || w.state == memberLeft
			x.mu.Unlock()
			if !quiet {
				// The transport IS the failure detector: a broken session
				// means the worker missed its liveness deadline (or the
				// process died). Declare it dead and recover.
				x.workerLost(w, fmt.Errorf("connection lost: %w", err))
			}
			return
		}
		w.inMsgs.Add(1)
		w.inBytes.Add(int64(len(msg)))
		f, err := wire.DecodeOwned(msg)
		if err != nil {
			x.failFatal(fmt.Errorf("live: worker %d (%s): %w", w.m, w.name, err))
			return
		}
		if len(f.Payload) == 0 {
			// Payload is the only Frame field aliasing msg (strings are
			// copies): payload-free frames — the vast majority of RPC
			// traffic — release their buffer to the send pool here.
			transport.PutBuf(msg)
		}
		switch f.Type {
		case wire.TObjData:
			x.mu.Lock()
			ch := x.pending[f.Req]
			delete(x.pending, f.Req)
			x.mu.Unlock()
			if ch != nil {
				ch <- f
			}
		case wire.TTaskDone:
			x.handleTaskDone(w, f, "")
		case wire.TTaskFail:
			x.handleTaskDone(w, f, f.Label)
		case wire.TEndAccess:
			if t := x.task(f.Task); t != nil {
				x.eng.EndAccess(t, access.ObjectID(f.Obj), access.Mode(f.A))
			}
		case wire.TClearAccess:
			if t := x.task(f.Task); t != nil {
				x.eng.ClearAccess(t, access.ObjectID(f.Obj))
			}
		case wire.TRetractReq:
			x.handleRetract(w, f)
		case wire.TCreateReq:
			// Inline: a task's successive creations must enter the engine
			// in program order (creation order IS the serial order), and
			// the connection's FIFO plus inline handling preserves it.
			x.handleCreate(w, f)
		case wire.TAccessReq:
			if f.B == 1 {
				// Pre-granted access notify: must run inline so it
				// enters the engine in FIFO order with this task's
				// later TEndAccess/TTaskDone. It never takes x.coh.
				x.handleAccessNotify(w, f)
			} else {
				go x.handleAccess(w, f)
			}
		case wire.TConvertReq:
			go x.handleConvert(w, f)
		case wire.TAllocReq:
			go x.handleAlloc(w, f)
		case wire.TStartReq:
			go x.handleStart(w, f)
		case wire.TLeave:
			// Graceful departure request; the drain completes asynchronously
			// (it must not block this loop, which routes the sync pulls).
			go x.Drain(w.m)
		default:
			x.failFatal(fmt.Errorf("live: worker %d (%s): unexpected %s frame", w.m, w.name, wire.TypeName(f.Type)))
			return
		}
	}
}

// handleTaskDone retires a task the worker finished (or failed).
func (x *Exec) handleTaskDone(w *workerLink, f *wire.Frame, errText string) {
	t := x.task(f.Task)
	if t == nil {
		x.failFatal(fmt.Errorf("live: worker %d reported completion of unknown task %d", w.m, f.Task))
		return
	}
	pl := t.Payload.(*payload)
	if errText != "" {
		x.fail(fmt.Errorf("task %d (%s) on worker %d: %s", t.ID, pl.opts.Label, w.m, errText))
	}
	x.record(trace.Event{Kind: trace.TaskCompleted, Task: uint64(t.ID), Dst: w.m, Label: pl.opts.Label})
	if err := x.eng.Complete(t); err != nil {
		x.fail(err)
	}
	x.record(trace.Event{Kind: trace.TaskCommitted, Task: uint64(t.ID), Dst: w.m})
	if pl.inline {
		// Inline children are not throttle-counted or wg-tracked; only
		// the bookkeeping map and the run counter need updating.
		x.unregister(t)
		x.statMu.Lock()
		if errText == "" {
			x.tasksRun++
		}
		x.statMu.Unlock()
		return
	}
	x.taskFinished(t, pl, time.Duration(f.A), errText == "")
}

// handleAccess grants a task's immediate access and stages the object
// on the requesting worker before replying.
func (x *Exec) handleAccess(w *workerLink, f *wire.Frame) {
	t := x.task(f.Task)
	if t == nil {
		w.reply(f.Req, fmt.Sprintf("access request for unknown task %d", f.Task), 0, 0)
		return
	}
	obj := access.ObjectID(f.Obj)
	mode := access.Mode(f.A)
	ch := make(chan struct{})
	ok, err := x.eng.Access(t, obj, mode, func() { close(ch) })
	if err != nil {
		w.reply(f.Req, err.Error(), 0, 0)
		return
	}
	if !ok {
		select {
		case <-ch:
		case <-x.fatal:
			return
		}
	}
	read := mode.HasAny(access.Read | access.Commute)
	write := mode.HasAny(access.Write | access.Commute)
	ferr := x.fetchOneRetry(t, obj, w.m, read, write)
	if ferr != nil {
		w.reply(f.Req, ferr.Error(), 0, 0)
		return
	}
	w.reply(f.Req, "", 0, 0)
}

// handleAccessNotify checks in a dispatch-time pre-granted access: the
// worker already proceeded on the promise that the engine cannot make
// this access wait, so there is no reply. The engine still records the
// checkout (EndAccess bookkeeping, violation detection) exactly as for
// a slow-path access.
func (x *Exec) handleAccessNotify(w *workerLink, f *wire.Frame) {
	t := x.task(f.Task)
	if t == nil {
		x.failFatal(fmt.Errorf("live: worker %d: access notify for unknown task %d", w.m, f.Task))
		return
	}
	ok, err := x.eng.Access(t, access.ObjectID(f.Obj), access.Mode(f.A), func() {})
	if err != nil {
		// The engine's Violation hook has already recorded the failure
		// and is unwinding the run; nothing to route back.
		return
	}
	if !ok {
		// The pre-grant contract promised this could not wait: the only
		// legal wait causes (conflicting later child, commute lock) are
		// excluded by the worker-side spawned/mode guards.
		x.failFatal(fmt.Errorf("live: protocol invariant broken: pre-granted access of object #%d by task %d had to wait", f.Obj, f.Task))
	}
}

// handleConvert promotes deferred rights to immediate.
func (x *Exec) handleConvert(w *workerLink, f *wire.Frame) {
	t := x.task(f.Task)
	if t == nil {
		w.reply(f.Req, fmt.Sprintf("convert request for unknown task %d", f.Task), 0, 0)
		return
	}
	ch := make(chan struct{})
	ok, err := x.eng.Convert(t, access.ObjectID(f.Obj), access.Mode(f.A), func() { close(ch) })
	if err != nil {
		w.reply(f.Req, err.Error(), 0, 0)
		return
	}
	if !ok {
		select {
		case <-ch:
		case <-x.fatal:
			return
		}
	}
	w.reply(f.Req, "", 0, 0)
}

// handleRetract drops rights; never blocks.
func (x *Exec) handleRetract(w *workerLink, f *wire.Frame) {
	t := x.task(f.Task)
	if t == nil {
		w.reply(f.Req, fmt.Sprintf("retract request for unknown task %d", f.Task), 0, 0)
		return
	}
	if err := x.eng.Retract(t, access.ObjectID(f.Obj), access.Mode(f.A)); err != nil {
		w.reply(f.Req, err.Error(), 0, 0)
		return
	}
	w.reply(f.Req, "", 0, 0)
}

// handleCreate enters a worker-created child task into the engine and
// decides inline-vs-dispatch under the creation throttle.
func (x *Exec) handleCreate(w *workerLink, f *wire.Frame) {
	parent := x.task(f.Task)
	if parent == nil {
		w.reply(f.Req, fmt.Sprintf("create request from unknown task %d", f.Task), 0, 0)
		return
	}
	c, err := unmarshalCreate(f.Payload)
	if err != nil {
		w.reply(f.Req, err.Error(), 0, 0)
		return
	}
	if f.A == 0 && f.Aux == "" {
		w.reply(f.Req, fmt.Sprintf("create %q: nil body and no kind", f.Label), 0, 0)
		return
	}
	pl := &payload{
		bodyKey:  f.A,
		group:    w.group,
		kind:     f.Aux,
		kindArgs: c.kindArgs,
		opts: rt.TaskOpts{
			Label: f.Label, Cost: costFromBits(f.B), Pin: int(f.C),
			RequireCap: c.requireCap, Kind: f.Aux, KindArgs: c.kindArgs,
		},
		creator: w.m,
		machine: -1,
	}
	if f.A != 0 && w.group == 0 {
		// The creator shares our process: keep a replayable reference to
		// the closure so a crash of the executing worker can re-run it.
		pl.body, _ = x.bodies.peek(f.A)
	}
	t, err := x.createTask(parent, c.decls, pl)
	if err != nil {
		w.reply(f.Req, err.Error(), 0, 0)
		return
	}
	var inlineFlag uint64
	if pl.inline {
		inlineFlag = 1
	}
	w.reply(f.Req, "", uint64(t.ID), inlineFlag)
}

// handleStart serves an inline child's start request: wait until the
// child's declarations enable, stage its objects on the creator's
// machine, and start it in the engine.
func (x *Exec) handleStart(w *workerLink, f *wire.Frame) {
	t := x.task(f.Task)
	if t == nil {
		w.reply(f.Req, fmt.Sprintf("start request for unknown task %d", f.Task), 0, 0)
		return
	}
	pl := t.Payload.(*payload)
	if !pl.inline {
		w.reply(f.Req, fmt.Sprintf("start request for non-inline task %d", f.Task), 0, 0)
		return
	}
	select {
	case <-pl.readyCh:
	case <-x.fatal:
		return
	}
	ferr := x.fetchAllRetry(t, w.m, nil)
	if ferr != nil {
		w.reply(f.Req, ferr.Error(), 0, 0)
		return
	}
	if err := x.eng.Start(t); err != nil {
		x.fail(err)
		if cerr := x.eng.Complete(t); cerr != nil {
			x.fail(cerr)
		}
		x.unregister(t)
		w.reply(f.Req, err.Error(), 0, 0)
		return
	}
	x.record(trace.Event{Kind: trace.TaskScheduled, Task: uint64(t.ID), Dst: w.m, Label: pl.opts.Label})
	x.record(trace.Event{Kind: trace.TaskStarted, Task: uint64(t.ID), Dst: w.m, Label: pl.opts.Label})
	w.reply(f.Req, "", 0, 0)
}

// handleAlloc registers a worker-allocated object: the worker keeps the
// live value (it is the owner); the coordinator caches a decoded copy
// as the generation-0 patch base.
func (x *Exec) handleAlloc(w *workerLink, f *wire.Frame) {
	t := x.task(f.Task)
	if t == nil {
		w.reply(f.Req, fmt.Sprintf("alloc request from unknown task %d", f.Task), 0, 0)
		return
	}
	img := f.Payload
	var words int
	if ord := format.ByteOrder(f.A); ord != x.opts.Format {
		conv, n, err := format.Convert(img, ord, x.opts.Format)
		if err != nil {
			w.reply(f.Req, err.Error(), 0, 0)
			return
		}
		img, words = conv, n
	}
	v, err := format.Decode(img, x.opts.Format)
	if err != nil {
		w.reply(f.Req, err.Error(), 0, 0)
		return
	}
	x.mu.Lock()
	id := x.nextObj
	x.nextObj++
	x.mu.Unlock()
	x.coh.Lock()
	x.vals[id] = v
	x.cacheVer[id] = 0
	x.dir[id] = &objDir{owner: w.m, copies: map[int]bool{w.m: true}, label: f.Label}
	x.coh.Unlock()
	x.noteConverted(id, w.m, 0, words)
	x.eng.RegisterObject(t, id)
	w.reply(f.Req, "", uint64(id), 0)
}
