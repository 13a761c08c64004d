package live

import (
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// taskFrom looks up the live task a frame from w names. gone reports that
// w has been declared dead: between that verdict and the fence cutting the
// connection its frames can still arrive — a failure its eviction caused, a
// request from a body still running — and they are late traffic to drop,
// not to apply to a task that is being re-executed elsewhere.
func (x *Exec) taskFrom(w *workerLink, id uint64) (t *core.Task, gone bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.tasks[core.TaskID(id)], w.state == memberDead
}

// register enters a task in the table that task resolves wire ids
// against. A task's id leaves the coordinator in exactly one frame — the
// dispatch frame of a scheduled task, the create reply of an inline one —
// and the task must be in the table before that frame exists, or the
// worker's first message about it (check-ins, its completion) finds
// nothing. So each task is registered exactly once, by the step
// that precedes its frame: onReady before it dispatches a scheduled task,
// createTask before it returns an inline child.
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
	x.onReady(t) // the creation half of the join: the task may go now
	x.dispatchReadied(true)
	return t, nil
}

// recvLoop drains one worker's connection for the whole run. Every frame
// is handled inline, in arrival order, and no handler waits: one either
// replies at once or registers what it waits for — the engine's grant of an
// access or a conversion, an inline child's readiness, the next membership
// epoch — as a continuation that replies from whichever goroutine fires it.
// The same holds for the dispatch of every task a retirement, release or
// creation makes ready (lockdiscipline_test.go at the repo root keeps the
// loop from reaching a wait). The loop takes x.coh itself, to install a
// frame's write-backs before its handler runs. That cannot deadlock: no
// holder of x.coh waits for anything this loop delivers — the coordinator
// asks workers for nothing, and under the lock it only sends. Each frame is
// decoded into a value on the loop's stack: a continuation copies the
// fields it needs (req := f.Req) and never holds the frame.
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
		// Every frame but a leave request is about one task: resolve it
		// once, here.
		var t *core.Task
		if f.Type != wire.TLeave {
			var gone bool
			if t, gone = x.taskFrom(w, f.Task); gone {
				continue
			} else if t == nil {
				x.unknownTask(w, &f)
				continue
			}
		} else if len(f.Checkins) > 0 || len(f.Writebacks) > 0 {
			x.failFatal(fmt.Errorf("live: worker %d (%s): check-ins or write-backs on a %s frame, which names no task", w.m, w.name, wire.TypeName(f.Type)))
			return
		}
		// The task's pre-granted accesses since its previous frame enter the
		// engine here, inline and before the frame that carries them: the
		// FIFO position frames of their own would have had, so a release
		// never precedes its check-out. accessPregranted never takes x.coh.
		for c := f.Checkins; len(c) > 0; c = c[wire.AccessRecLen:] {
			obj, mode := wire.AccessRec(c)
			x.accessPregranted(t, access.ObjectID(obj), access.Mode(mode))
		}
		// What the task wrote under the rights this frame releases reaches
		// the cache here, before the handler that releases them: whoever the
		// frame enables is staged from the new bytes.
		if len(f.Writebacks) > 0 {
			x.coh.Lock()
			err := x.applyWritebacksLocked(w, t, f.Writebacks)
			x.coh.Unlock()
			if err != nil {
				return
			}
		}
		if len(f.Payload) == 0 {
			// Checkins and Writebacks (consumed above) and Payload are the
			// only Frame fields aliasing msg (strings are copies):
			// payload-free frames — the vast majority of RPC traffic —
			// release their buffer to the send pool here.
			transport.PutBuf(msg)
		}
		obj, mode := access.ObjectID(f.Obj), access.Mode(f.A)
		switch f.Type {
		case wire.TTaskDone:
			x.handleTaskDone(w, t, &f, "")
		case wire.TTaskFail:
			x.handleTaskDone(w, t, &f, f.Label)
		case wire.TEndAccess:
			x.eng.EndAccess(t, obj, mode)
		case wire.TClearAccess:
			x.eng.ClearAccess(t, obj)
		case wire.TRetractReq:
			w.replyErr(f.Req, x.retract(t, obj, mode), 0) // never blocks
		case wire.TCreateReq:
			// Inline: a task's successive creations must enter the engine
			// in program order (creation order IS the serial order), and
			// the connection's FIFO plus inline handling preserves it.
			x.handleCreate(w, t, &f)
		case wire.TAccessReq:
			req := f.Req
			x.access(t, w.m, obj, mode, func(gen uint64, err error) { w.replyErr(req, err, gen) })
		case wire.TConvertReq:
			req := f.Req
			x.convert(t, w.m, obj, mode, func(err error) { w.replyErr(req, err, 0) })
		case wire.TAllocReq:
			x.handleAlloc(w, t, &f)
		case wire.TStartReq:
			x.handleStart(w, t, &f)
		case wire.TLeave:
			// Graceful departure request. Drain only flips the state; the
			// departure completes in a goroutine of its own (it closes the
			// connection this loop is reading). A refusal (already
			// draining, run shutting down) needs no answer.
			_ = x.Drain(w.m)
		default:
			x.failFatal(fmt.Errorf("live: worker %d (%s): unexpected %s frame", w.m, w.name, wire.TypeName(f.Type)))
			return
		}
	}
}

// unknownTask answers a frame naming a task the table does not hold. A
// check-in, write-back or completion nobody asked for is a protocol error;
// otherwise a request gets an error reply and a release of rights has
// nothing left to release.
func (x *Exec) unknownTask(w *workerLink, f *wire.Frame) {
	switch {
	case len(f.Checkins) > 0:
		x.failFatal(fmt.Errorf("live: worker %d: access check-in for unknown task %d", w.m, f.Task))
	case len(f.Writebacks) > 0:
		x.failFatal(fmt.Errorf("live: worker %d: write-back for unknown task %d", w.m, f.Task))
	case f.Req != 0:
		w.reply(f.Req, fmt.Sprintf("%s request for unknown task %d", wire.TypeName(f.Type), f.Task), 0, 0)
	case f.Type == wire.TEndAccess || f.Type == wire.TClearAccess:
	default:
		x.failFatal(fmt.Errorf("live: worker %d: %s for unknown task %d", w.m, wire.TypeName(f.Type), f.Task))
	}
}

// handleTaskDone retires a task the worker finished (or failed).
func (x *Exec) handleTaskDone(w *workerLink, t *core.Task, f *wire.Frame, errText string) {
	pl := t.Payload.(*payload)
	if errText != "" {
		x.fail(fmt.Errorf("task %d (%s) on worker %d: %s", t.ID, pl.opts.Label, w.m, errText))
	}
	x.record(trace.Event{Kind: trace.TaskCompleted, Task: uint64(t.ID), Dst: w.m, Label: pl.opts.Label})
	if !pl.inline {
		x.releaseTask(t, pl)
	}
	if err := x.complete(t); err != nil {
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
	x.taskFinished(pl, time.Duration(f.A), errText == "")
}

// replyErr answers an RPC with err's text, or with result scalar a when err
// is nil.
func (w *workerLink) replyErr(req uint64, err error, a uint64) {
	if err != nil {
		w.reply(req, err.Error(), 0, 0)
		return
	}
	w.reply(req, "", a, 0)
}

// handleCreate enters a worker-created child task into the engine and
// decides inline-vs-dispatch under the creation throttle.
func (x *Exec) handleCreate(w *workerLink, parent *core.Task, f *wire.Frame) {
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
		// The creator shares our process: keep a reference to the closure so
		// a crash of the executing worker can re-run it.
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

// handleStart serves an inline child's start request; the reply carries the
// child's pre-grant records, as its dispatch frame would have.
func (x *Exec) handleStart(w *workerLink, t *core.Task, f *wire.Frame) {
	pl := t.Payload.(*payload)
	if !pl.inline {
		w.reply(f.Req, fmt.Sprintf("start request for non-inline task %d", f.Task), 0, 0)
		return
	}
	req := f.Req
	x.startInline(t, pl, w.m, func(grants []byte, err error) {
		if err != nil {
			w.replyErr(req, err, 0)
			return
		}
		w.send(&wire.Frame{Type: wire.TReply, Req: req, Payload: grants})
	})
}

// handleAlloc registers a worker-allocated object: the worker keeps the
// live value (it is the owner); the coordinator caches a decoded copy
// as the generation-0 patch base.
func (x *Exec) handleAlloc(w *workerLink, t *core.Task, f *wire.Frame) {
	v, words, err := coherence.Unpack(nil, f.Payload, false, format.ByteOrder(f.A), x.opts.Format)
	if err != nil {
		w.reply(f.Req, err.Error(), 0, 0)
		return
	}
	id := x.alloc(t, w.m, v, f.Label)
	x.noteConverted(id, w.m, 0, words)
	w.reply(f.Req, "", uint64(id), 0)
}
