package live

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/exec/pool"
	"repro/internal/format"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// WorkerOptions configure one worker endpoint.
type WorkerOptions struct {
	// Name identifies the worker in coordinator diagnostics.
	Name string
	// Caps are capability tags this worker advertises; tasks created
	// with a matching RequireCap can schedule here.
	Caps []string
	// Format is the worker's native byte order. On a heterogeneous
	// network workers legitimately differ; the coordinator converts.
	Format format.ByteOrder
	// Bodies is the closure table shared with the coordinator when the
	// worker runs in the coordinator's process. Leave nil for a worker
	// in its own process: it gets a private table and a fresh process
	// group, so the coordinator knows closures cannot reach it.
	Bodies *BodyTable
	// Kinds resolves named task kinds; nil uses the global registry.
	Kinds *KindRegistry
	// Slots is the number of tasks the worker executes concurrently
	// (processor slots). 0 means 1.
	Slots int
	// Leave, when non-nil, requests a graceful departure when it becomes
	// readable: the worker sends TLeave and keeps serving until the
	// coordinator has drained it and answers TBye.
	Leave <-chan struct{}
}

// ErrEvicted is returned by Serve when the coordinator has declared this
// worker dead and fenced its session. The worker process is in fact
// alive (a false positive of the failure detector); it may rejoin the
// computation only as a brand-new member via a fresh dial.
var ErrEvicted = errors.New("live: worker evicted (declared dead by coordinator)")

var groupCounter atomic.Uint64

// uniqueGroup fabricates a process-group token that will not collide
// with the coordinator's (0) and is vanishingly unlikely to collide
// with another worker process.
func uniqueGroup() uint64 {
	g := uint64(os.Getpid())<<32 ^ uint64(time.Now().UnixNano()) ^ groupCounter.Add(1)
	if g == 0 {
		g = 1
	}
	return g
}

// syncBase is the worker's record of the last object generation both
// sides agree on: the diff base for patches in either direction. A push or
// an invalidation sets it from the receive loop, a write-back from the
// task that held the write — the only one that may touch the object then.
// The base is the store's value itself until a write grant needs that
// value: takeLocked then copies it into the spare, the private base the
// previous write-back retired, or into a new clone when there is no spare
// of its shape. A base is overwritten only where nothing else can reach it:
// a push lands in the base of an object that has left the store.
type syncBase struct {
	val   any
	ver   uint64
	spare any // a retired private base: never a stored value, never viewed
}

// worker is one worker endpoint's state.
type worker struct {
	conn    transport.Conn
	opts    WorkerOptions
	group   uint64               // process-group token sent in the hello
	m       int                  // machine index assigned by the coordinator
	slots   *tenantPool          // the host's slots, seen through the session's tenant
	runners *pool.Pool[dispatch] // run the dispatched task bodies

	mu        sync.Mutex
	store     map[access.ObjectID]any
	bases     map[access.ObjectID]syncBase
	pending   map[uint64]chan wire.Frame
	nextReq   uint64
	err       error
	storeCond *sync.Cond // broadcast on every store insert and on fail
	closed    bool       // set by fail; wakes awaitObject waiters

	dead     chan struct{}
	deadOnce sync.Once
}

// newWorker builds the endpoint state of one session on a host, for
// normalized opts, its task bodies gated by the host's slots seen through
// the session's tenant. Split from serve so the host can hold the handle
// for inspection.
func newWorker(conn transport.Conn, opts WorkerOptions, group uint64, slots *tenantPool) *worker {
	w := &worker{
		conn:    conn,
		opts:    opts,
		group:   group,
		slots:   slots,
		store:   map[access.ObjectID]any{},
		bases:   map[access.ObjectID]syncBase{},
		pending: map[uint64]chan wire.Frame{},
		nextReq: 1,
		dead:    make(chan struct{}),
	}
	w.storeCond = sync.NewCond(&w.mu)
	w.runners = pool.New(opts.Slots, w.newRunner)
	return w
}

func (w *worker) serve() error {
	conn, opts := w.conn, w.opts
	if err := w.send(&wire.Frame{
		Type: wire.THello, Label: opts.Name,
		Aux: strings.Join(opts.Caps, ","),
		A:   uint64(opts.Format), B: w.group, C: uint64(opts.Slots),
	}); err != nil {
		return err
	}
	msg, err := conn.Recv()
	if err != nil {
		w.fail(err)
		return fmt.Errorf("live worker: waiting for welcome: %w", err)
	}
	f, err := wire.Decode(msg)
	if err != nil {
		w.fail(err)
		return fmt.Errorf("live worker: %w", err)
	}
	if f.Type == wire.TBye {
		// The program finished before this worker could join it.
		w.fail(ErrClosing)
		return ErrClosing
	}
	if f.Type != wire.TWelcome {
		err := fmt.Errorf("live worker: expected welcome, got %s", wire.TypeName(f.Type))
		w.fail(err)
		return err
	}
	w.m = int(f.A)
	if opts.Leave != nil {
		go func() {
			select {
			case <-opts.Leave:
				w.send(&wire.Frame{Type: wire.TLeave})
			case <-w.dead:
			}
		}()
	}
	err = w.loop()
	w.runners.Close()
	return err
}

// fail records the first terminal error and releases every waiter.
func (w *worker) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.closed = true
	w.storeCond.Broadcast()
	w.mu.Unlock()
	w.deadOnce.Do(func() { close(w.dead) })
}

// failErr is the terminal error to report from an unwound wait.
func (w *worker) failErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return transport.ErrClosed
}

// send encodes and ships one frame to the coordinator, recycling the
// encode buffer through the transport pool when the transport accepts
// ownership.
func (w *worker) send(f *wire.Frame) error {
	buf, err := wire.AppendFrame(transport.GetBuf(), f)
	if err != nil {
		err = fmt.Errorf("live worker %d: encode %s: %w", w.m, wire.TypeName(f.Type), err)
		w.fail(err)
		return err
	}
	if err := transport.SendPooled(w.conn, buf); err != nil {
		w.fail(err)
		return err
	}
	return nil
}

// rpc ships a request frame and waits for its reply, which the receive
// loop routes to reply: the caller's channel, one per runner, reused from
// request to request. A reply to a request the runner gave up on when the
// worker died may still be in it, and is skipped.
func (w *worker) rpc(f *wire.Frame, reply chan wire.Frame) (wire.Frame, error) {
	w.mu.Lock()
	req := w.nextReq
	w.nextReq++
	w.pending[req] = reply
	w.mu.Unlock()
	f.Req = req
	if err := w.send(f); err != nil {
		return wire.Frame{}, err
	}
	for {
		select {
		case r := <-reply:
			if r.Req == req {
				return r, nil
			}
		case <-w.dead:
			return wire.Frame{}, w.failErr()
		}
	}
}

// loop is the worker's receive loop. Object traffic and replies are
// handled inline (none of it blocks); dispatched task bodies are queued
// for the runners, which the slot tokens gate. Each frame is decoded into a
// value on the loop's stack. Its receive buffer goes back to the send pool
// once nothing reads it: at once, unless a queued dispatch's payload or a
// reply's payload aliases it (strings are copies, and check-ins and
// write-backs flow the other way). A runner recycles its dispatch's
// buffer; a reply's is left to the collector.
func (w *worker) loop() error {
	for {
		msg, err := w.conn.Recv()
		if err != nil {
			w.fail(err)
			return fmt.Errorf("live worker %d: connection lost: %w", w.m, err)
		}
		f, err := wire.DecodeOwned(msg)
		if err != nil {
			w.fail(err)
			return fmt.Errorf("live worker %d: %w", w.m, err)
		}
		held := false
		switch f.Type {
		case wire.TDispatch:
			w.runners.Push(dispatch{f, msg})
			held = true
		case wire.TObjImage:
			err = w.applyPush(&f, false)
		case wire.TObjPatch:
			err = w.applyPush(&f, true)
		case wire.TObjZero:
			err = w.applyZero(&f)
		case wire.TInvalidate:
			w.applyInvalidate(&f)
		case wire.TReply:
			held = len(f.Payload) > 0
			w.mu.Lock()
			ch := w.pending[f.Req]
			delete(w.pending, f.Req)
			w.mu.Unlock()
			select {
			case ch <- f:
			default: // a nil channel, or one whose runner gave up when the worker died
			}
		case wire.TBye:
			w.fail(transport.ErrClosed)
			return nil
		case wire.TEvict:
			w.fail(ErrEvicted)
			return ErrEvicted
		default:
			err = fmt.Errorf("live worker %d: unexpected %s frame", w.m, wire.TypeName(f.Type))
		}
		if err == nil && len(f.Dispatch) > 0 {
			// A coalesced dispatch rode this push: unwrap it and start the
			// task, now that its first object is installed. The push's own
			// payload is decoded into a value of its own, so the buffer
			// goes with the dispatch.
			df, derr := wire.DecodeOwned(f.Dispatch)
			if derr != nil || df.Type != wire.TDispatch {
				err = fmt.Errorf("live worker %d: coalesced dispatch on %s frame: %v", w.m, wire.TypeName(f.Type), derr)
			} else {
				w.runners.Push(dispatch{df, msg})
				held = true
			}
		}
		if !held {
			transport.PutBuf(msg)
		}
		if err != nil {
			w.fail(err)
			return err
		}
	}
}

// applyPush installs a pushed object — a full image, or a patch that
// advances the recorded sync base — written into the recorded sync base
// when it has the object's shape, and records the result as the new sync
// base. The coordinator converts to this worker's byte order before
// sending; Unpack's order handling is defensive. Decoding happens outside
// w.mu (task goroutines look objects up under it): no task holds a write on
// an object while a push of it is in flight, so nothing else replaces this
// sync base meanwhile. The base is this worker's alone to overwrite: the
// coordinator pushes only an object the worker does not hold, so its base
// left the store at TInvalidate, and the engine granted the write that
// invalidated it only after every earlier reader had released it.
func (w *worker) applyPush(f *wire.Frame, isPatch bool) error {
	obj := access.ObjectID(f.Obj)
	w.mu.Lock()
	b, ok := w.bases[obj]
	w.mu.Unlock()
	if isPatch && (!ok || b.ver != f.C) {
		have := "none"
		if ok {
			have = fmt.Sprint(b.ver)
		}
		return fmt.Errorf("live worker %d: patch for object #%d against base %d, have %s", w.m, f.Obj, f.C, have)
	}
	v, _, err := coherence.Unpack(b.val, f.Payload, isPatch, format.ByteOrder(f.B), w.opts.Format)
	if err != nil {
		return fmt.Errorf("live worker %d: push of object #%d: %w", w.m, f.Obj, err)
	}
	w.mu.Lock()
	w.store[obj] = v
	w.bases[obj] = syncBase{val: v, ver: f.A, spare: b.spare} // shared until a write grant (takeLocked)
	w.storeCond.Broadcast()
	w.mu.Unlock()
	return nil
}

// applyZero installs a fresh zeroed buffer: a write-only grant ships no
// data, only the shape.
func (w *worker) applyZero(f *wire.Frame) error {
	v := format.Zero(format.Kind(f.B), int(f.C))
	if v == nil {
		return fmt.Errorf("live worker %d: zero grant for object #%d with invalid kind %d", w.m, f.Obj, f.B)
	}
	obj := access.ObjectID(f.Obj)
	w.mu.Lock()
	w.store[obj] = v
	delete(w.bases, obj) // no shared base: the write-back goes full
	w.storeCond.Broadcast()
	w.mu.Unlock()
	return nil
}

// applyInvalidate discards the copy but keeps it as the frozen sync
// base, so a later re-grant can arrive as a patch. Out of the store, no
// grant can reach the value to write it, so it needs no copy.
func (w *worker) applyInvalidate(f *wire.Frame) {
	obj := access.ObjectID(f.Obj)
	w.mu.Lock()
	if v, ok := w.store[obj]; ok {
		w.bases[obj] = syncBase{val: v, ver: f.A, spare: w.bases[obj].spare}
		delete(w.store, obj)
	}
	w.mu.Unlock()
}

// objectIDs snapshots every object id resident in this worker's cache:
// live store entries plus sync bases (which outlive invalidation). The
// cross-tenant isolation tests use it to prove no foreign session's
// object ever lands here.
func (w *worker) objectIDs() []access.ObjectID {
	w.mu.Lock()
	defer w.mu.Unlock()
	seen := make(map[access.ObjectID]struct{}, len(w.store)+len(w.bases))
	for id := range w.store {
		seen[id] = struct{}{}
	}
	for id := range w.bases {
		seen[id] = struct{}{}
	}
	ids := make([]access.ObjectID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	return ids
}

// dispatch is a task dispatch no runner has taken yet: the decoded frame,
// and the receive buffer its Payload aliases, which the runner gives back
// to the send pool once it has read the payload.
type dispatch struct {
	f   wire.Frame
	buf []byte
}

// newRunner sets up one task runner. One task context serves every task it
// runs, so the pre-grant lists, frame buffers and reply channel in it are
// allocated once. For each dispatch the runner waits for a slot, runs the
// body, counts as free, gives the slot back — so a body returning from
// rpcYield competes for it with the queued tasks — and sends the task's last
// frame. It leaves when the worker dies while it waits for a slot, which
// drops a dispatch still queued at the death, or while its body waits in
// rpcYield, the slot gone with the worker.
func (w *worker) newRunner() func(dispatch) bool {
	tc := &workerTC{w: w, wt: &watch{}, reply: make(chan wire.Frame, 1)}
	return func(d dispatch) bool {
		if !w.slots.acquire(w.dead) {
			return false
		}
		last, ok := tc.run(&d)
		lost := tc.wt.lost
		if !lost {
			w.runners.Free()
			w.slots.release()
		}
		if ok {
			tc.finish(&last)
		}
		return !lost
	}
}

// run sets tc up for the task dispatch d names and runs its body, with the
// runner holding a slot. It returns the frame that ends the task, for
// finish, or !ok when the dispatch was malformed and has been answered.
// The dispatch's buffer goes back to the send pool before the body runs:
// the pre-grants are copied into tc's lists and a kind gets its own copy of
// its args, so nothing reads the payload after that.
func (tc *workerTC) run(d *dispatch) (last wire.Frame, ok bool) {
	w, f := tc.w, &d.f
	grants, writes, args, err := unmarshalDispatchPayload(f.Payload, tc.grants, tc.writes)
	if err != nil {
		transport.PutBuf(d.buf)
		w.send(&wire.Frame{Type: wire.TTaskFail, Task: f.Task,
			Label: fmt.Sprintf("malformed dispatch payload: %v", err)})
		return last, false
	}
	tc.task, tc.grants, tc.writes, tc.spawned = f.Task, grants, writes, false
	*tc.wt = watch{}
	// Every pre-granted access checks in once, in the usual case.
	tc.checkins = slices.Grow(tc.checkins[:0], len(grants)*wire.AccessRecLen)
	var body func(rt.TC)
	if f.A != 0 {
		body, _ = w.opts.Bodies.take(f.A)
	}
	if body == nil && f.Aux != "" {
		body, _ = w.opts.Kinds.resolve(f.Aux, slices.Clone(args))
	}
	transport.PutBuf(d.buf)
	if body == nil {
		return wire.Frame{Type: wire.TTaskFail,
			Label: fmt.Sprintf("no body for key %d and no registered kind %q on this worker", f.A, f.Aux)}, true
	}
	tc.wt.heldAt = time.Now()
	err = w.runBody(tc, body)
	tc.wt.busy += time.Since(tc.wt.heldAt)
	if err != nil {
		return wire.Frame{Type: wire.TTaskFail, Label: err.Error()}, true
	}
	return wire.Frame{Type: wire.TTaskDone, A: uint64(tc.wt.busy)}, true
}

// runBody executes a body, converting panics into task failure.
func (w *worker) runBody(tc rt.TC, body func(rt.TC)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	body(tc)
	return nil
}

// watch is the busy stopwatch for one dispatched task and any children
// it inlines (they borrow its processor slot).
type watch struct {
	heldAt time.Time
	busy   time.Duration
	// lost records that the slot token was released for an RPC and never
	// re-acquired because the worker died; the task must not return a
	// token it does not hold.
	lost bool
}

// pregrant is one access mode the dispatch granted ahead of time.
type pregrant struct {
	obj  access.ObjectID
	mode access.Mode
}

// writeGrant is one write right a task holds: the generation the directory
// started when it granted the write, and how many write views of the
// object the task has open.
type writeGrant struct {
	obj   access.ObjectID
	gen   uint64
	views int
}

// workerTC implements rt.TC for a task body running on a worker. Every
// operation the dispatch did not pre-grant is a small RPC to the
// coordinator's engine; blocking RPCs release the processor slot so other
// tasks can run meanwhile — otherwise a worker whose only task is waiting
// for an access grant could never run the earlier task that grant depends
// on. Every frame about the task leaves through send or rpc. The lists
// below are touched only by the task's own goroutine; a runner reuses their
// storage for the next task, and an inline child borrows its creator's
// check-in and write-back buffers.
type workerTC struct {
	w    *worker
	task uint64
	wt   *watch
	// grants are the access modes pre-granted at dispatch time (the
	// task's immediate non-commuting declarations), in object order: an
	// Access within a grant cannot conflict engine-side, so it sends
	// nothing. A released grant keeps its place with mode 0.
	grants []pregrant
	// checkins are the pre-granted accesses performed since the task's
	// last frame, as wire access records in program order. They ride the
	// next frame the task sends, whatever it is; the coordinator applies
	// them before that frame, which is where frames of their own would
	// have stood.
	checkins []byte
	// writes are the write grants the task holds and has not released,
	// whether or not it has used them, in the order they were granted: the
	// coordinator started a generation for each, and expects its bytes on
	// the frame that gives the right up.
	writes []writeGrant
	// writebacks are the wire write-back records of the rights the frame
	// being built releases; they leave on it, ahead of its own effect.
	writebacks []byte
	// spawned flips once this task creates a child; from then on every
	// Access takes the slow path, because a conflicting child may
	// legitimately make the parent's deferred re-access wait.
	spawned bool
	// reply is where the receive loop routes the replies to this task's
	// requests: the runner's own channel, which an inline child borrows
	// while its creator waits for it.
	reply chan wire.Frame
}

// CoreTask implements rt.TC. The engine record lives on the
// coordinator; worker-side bodies have no local view of it.
func (tc *workerTC) CoreTask() *core.Task { return nil }

// Machine implements rt.TC.
func (tc *workerTC) Machine() int { return tc.w.m }

// carry makes f a frame about this task and moves the pending check-ins
// and write-backs onto it. The lists' storage is reused: the frame is
// encoded before send returns, and only the task's own goroutine sends for
// it.
func (tc *workerTC) carry(f *wire.Frame) *wire.Frame {
	f.Task = tc.task
	f.Checkins, tc.checkins = tc.checkins, tc.checkins[:0]
	f.Writebacks, tc.writebacks = tc.writebacks, tc.writebacks[:0]
	return f
}

// writeBack gives up the task's write grant on obj, if it holds one: what
// the object holds now, diffed against the generation both sides last
// agreed on, joins the frame being built, and that agreement advances to
// the grant's generation — what the coordinator's cache will carry once
// it has applied the record. A grant the task never used is written back
// all the same (the coordinator counted a generation for it); its push
// may still be in flight, hence the wait.
func (tc *workerTC) writeBack(obj access.ObjectID) {
	if i := tc.writeIdx(obj); i >= 0 {
		g := tc.writes[i]
		tc.writes = slices.Delete(tc.writes, i, i+1)
		tc.release(g)
	}
}

// release appends the write-back record of grant g to the frame being
// built.
func (tc *workerTC) release(g writeGrant) {
	w, obj := tc.w, g.obj
	v, err := w.awaitObject(obj, access.Read)
	if err != nil {
		return // the worker is dead; nothing it sends is read any more
	}
	w.mu.Lock()
	base := w.bases[obj]
	w.mu.Unlock()
	// The record leaves in this worker's own byte order; the coordinator
	// converts. Its payload is encoded once, straight into the record,
	// which reserves the full image only when it cannot be a patch.
	at, n := len(tc.writebacks), wire.WritebackLen(0)
	if base.val == nil {
		n = wire.WritebackLen(format.SizeOf(v))
	}
	rec := slices.Grow(tc.writebacks, n)[:at+wire.WritebackLen(0)]
	rec, isPatch, _, err := coherence.AppendPack(rec, base.val, v, w.opts.Format, w.opts.Format)
	if err != nil {
		w.fail(fmt.Errorf("live worker %d: write-back of object #%d: %w", w.m, obj, err))
		return
	}
	wire.PutWritebackHeader(rec[at:], wire.Writeback{Obj: uint64(obj), Gen: g.gen, Base: base.ver,
		Order: byte(w.opts.Format), Patch: isPatch})
	tc.writebacks = rec
	// The task's write ends here, so what it wrote becomes the base as it
	// stands: the next write grant un-shares it (takeLocked), into the base
	// it replaces, which retires as the spare. A grant the task never used
	// left that base the stored value itself, which must never be a spare:
	// the next writer would write into its own diff base.
	spare := base.spare
	if base.val != nil && !format.Same(base.val, v) {
		spare = base.val
	}
	w.mu.Lock()
	w.bases[obj] = syncBase{val: v, ver: g.gen, spare: spare}
	w.mu.Unlock()
}

// finish sends the task's last frame, a completion or a failure, with
// every write grant the task still holds written back on it, in the order
// they were granted.
func (tc *workerTC) finish(f *wire.Frame) {
	for _, g := range tc.writes {
		tc.release(g)
	}
	tc.writes = tc.writes[:0]
	tc.send(f)
}

// writeIdx is the index of the write grant on obj, or -1.
func (tc *workerTC) writeIdx(obj access.ObjectID) int {
	for i := range tc.writes {
		if tc.writes[i].obj == obj {
			return i
		}
	}
	return -1
}

// dropGrant withdraws the pre-grant on obj: a released or reshaped grant
// never fast-paths again.
func (tc *workerTC) dropGrant(obj access.ObjectID) {
	for i := range tc.grants {
		if tc.grants[i].obj == obj {
			tc.grants[i].mode = 0
			return
		}
	}
}

// send ships a fire-and-forget frame about this task.
func (tc *workerTC) send(f *wire.Frame) error { return tc.w.send(tc.carry(f)) }

// rpc ships a request about this task and waits for the reply, keeping
// the processor slot (for requests that never block engine-side).
func (tc *workerTC) rpc(f *wire.Frame) (wire.Frame, error) { return tc.w.rpc(tc.carry(f), tc.reply) }

// rpcYield performs an RPC with the processor slot released.
func (tc *workerTC) rpcYield(f *wire.Frame) (wire.Frame, error) {
	w := tc.w
	tc.wt.busy += time.Since(tc.wt.heldAt)
	w.runners.Yield() // the slot may go to a queued task
	w.slots.release()
	r, err := tc.rpc(f)
	w.runners.Resume()
	if !w.slots.acquire(w.dead) {
		tc.wt.lost = true
		return wire.Frame{}, w.failErr()
	}
	tc.wt.heldAt = time.Now()
	return r, err
}

// canFastPath reports whether an Access is covered by a dispatch-time
// pre-grant: plain read/write modes only, no children spawned yet, and
// the requested bits a subset of the granted bits.
func (tc *workerTC) canFastPath(obj access.ObjectID, m access.Mode) bool {
	if tc.spawned || m == 0 || m&^access.ReadWrite != 0 {
		return false
	}
	for _, g := range tc.grants {
		if g.obj == obj {
			return g.mode&m == m
		}
	}
	return false
}

// awaitObject waits for a copy of obj to land in the store and takes it
// for an access in mode m (takeLocked). Presence is currency: stale copies
// are always invalidated out of the store, so a stored value is the one
// the coordinator granted.
func (w *worker) awaitObject(obj access.ObjectID, m access.Mode) (any, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if v, ok := w.takeLocked(obj, m); ok {
			return v, nil
		}
		if w.closed {
			if w.err != nil {
				return nil, w.err
			}
			return nil, transport.ErrClosed
		}
		w.storeCond.Wait()
	}
}

// takeLocked returns the store's copy of obj for an access in mode m.
// Every write grant un-shares: a push or a write-back leaves the stored
// value shared with the sync base, which the writer must not modify, so a
// write or commute access to a shared value first gives the base a copy of
// its own, in the base's spare when it has one of the value's shape. The
// store keeps the value, so views the task already holds see what it
// writes. This is the one place a body gains write access to a stored
// value. Requires w.mu.
func (w *worker) takeLocked(obj access.ObjectID, m access.Mode) (any, bool) {
	v, ok := w.store[obj]
	if ok && m.HasAny(access.Write|access.Commute) {
		if b, based := w.bases[obj]; based && format.Same(b.val, v) {
			w.bases[obj] = syncBase{val: format.CloneInto(b.spare, v), ver: b.ver}
		}
	}
	return v, ok
}

// Access implements rt.TC.
func (tc *workerTC) Access(obj access.ObjectID, m access.Mode) (any, error) {
	if tc.canFastPath(obj, m) {
		// Pre-granted at dispatch: the engine cannot make this access
		// wait, so nothing is sent — the check-in rides the task's next
		// frame — and the task only waits for the object copy itself,
		// keeping its slot, since no local task can be what it is waiting
		// for.
		tc.checkins = wire.AppendAccessRec(tc.checkins, uint64(obj), byte(m))
		if i := tc.writeIdx(obj); i >= 0 && m.Has(access.Write) {
			tc.writes[i].views++
		}
		return tc.w.awaitObject(obj, m)
	}
	r, err := tc.rpcYield(&wire.Frame{Type: wire.TAccessReq, Obj: uint64(obj), A: uint64(m)})
	if err != nil {
		return nil, err
	}
	if r.Label != "" {
		return nil, errors.New(r.Label)
	}
	if m.HasAny(access.Write | access.Commute) {
		// Every granted write starts a generation; the reply names it.
		if i := tc.writeIdx(obj); i >= 0 {
			tc.writes[i].gen = r.A
			tc.writes[i].views++
		} else {
			tc.writes = append(tc.writes, writeGrant{obj: obj, gen: r.A, views: 1})
		}
	}
	tc.w.mu.Lock()
	v, ok := tc.w.takeLocked(obj, m)
	tc.w.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("live worker %d: access granted for object #%d but no copy arrived", tc.w.m, obj)
	}
	return v, nil
}

// EndAccess implements rt.TC (fire-and-forget; FIFO ordering makes it
// visible to the engine before anything else this task does next). Ending
// the task's last write view of obj releases the write: a commuting task
// may take the object next, or a child this task creates.
func (tc *workerTC) EndAccess(obj access.ObjectID, m access.Mode) {
	tc.dropGrant(obj)
	if i := tc.writeIdx(obj); i >= 0 && m.HasAny(access.Write|access.Commute) {
		if tc.writes[i].views--; tc.writes[i].views <= 0 {
			tc.writeBack(obj)
		}
	}
	tc.send(&wire.Frame{Type: wire.TEndAccess, Obj: uint64(obj), A: uint64(m)})
}

// ClearAccess implements rt.TC.
func (tc *workerTC) ClearAccess(obj access.ObjectID) {
	tc.dropGrant(obj)
	tc.writeBack(obj)
	tc.send(&wire.Frame{Type: wire.TClearAccess, Obj: uint64(obj)})
}

// Convert implements rt.TC.
func (tc *workerTC) Convert(obj access.ObjectID, which access.Mode) error {
	tc.dropGrant(obj) // the declaration changed shape: slow-path it
	r, err := tc.rpcYield(&wire.Frame{Type: wire.TConvertReq, Obj: uint64(obj), A: uint64(which)})
	if err != nil {
		return err
	}
	if r.Label != "" {
		return errors.New(r.Label)
	}
	return nil
}

// Retract implements rt.TC (never blocks engine-side; keep the slot).
func (tc *workerTC) Retract(obj access.ObjectID, which access.Mode) error {
	tc.dropGrant(obj)
	if which.HasAny(access.Write) {
		tc.writeBack(obj) // no_wr: the next task in the object's queue may start
	}
	r, err := tc.rpc(&wire.Frame{Type: wire.TRetractReq, Obj: uint64(obj), A: uint64(which)})
	if err != nil {
		return err
	}
	if r.Label != "" {
		return errors.New(r.Label)
	}
	return nil
}

// Create implements rt.TC. The closure is parked in this process's body
// table and only its key crosses the wire; the coordinator decides
// placement — or inline execution, which comes back to run here on the
// creator's slot.
func (tc *workerTC) Create(decls []access.Decl, opts rt.TaskOpts, body func(rt.TC)) error {
	w := tc.w
	if body == nil && opts.Kind == "" {
		return fmt.Errorf("create %q: nil body and no kind", opts.Label)
	}
	// A child may conflict with the parent's declarations; after this
	// point a parent Access can legitimately be made to wait, so the
	// pre-grant fast path is off for the rest of the task.
	tc.spawned = true
	// The child takes over whatever it declares: a write this task still
	// holds on one of those objects is released here, so the child is
	// staged from what this task wrote.
	for _, d := range decls {
		tc.writeBack(d.Object)
	}
	var key uint64
	if body != nil {
		key = w.opts.Bodies.put(body)
	}
	r, err := tc.rpc(&wire.Frame{
		Type:  wire.TCreateReq,
		Label: opts.Label, Aux: opts.Kind,
		A: key, B: costBits(opts.Cost), C: uint64(opts.Pin),
		Payload: marshalCreate(createReq{decls: decls, requireCap: opts.RequireCap, kindArgs: opts.KindArgs}),
	})
	if err != nil {
		if key != 0 {
			w.opts.Bodies.drop(key)
		}
		return err
	}
	if r.Label != "" {
		if key != 0 {
			w.opts.Bodies.drop(key)
		}
		return errors.New(r.Label)
	}
	if r.B != 1 {
		return nil // dispatched: a worker will claim the body by key
	}

	// Inline: reclaim the body and run it here once the coordinator
	// reports the child ready and its objects staged. The create request
	// carried this task's pending lists, so the child can fill their
	// storage; it is handed back, grown or not, when the child is done.
	child := &workerTC{w: w, task: r.A, wt: tc.wt, checkins: tc.checkins[:0], writebacks: tc.writebacks[:0], reply: tc.reply}
	defer func() { tc.checkins, tc.writebacks = child.checkins[:0], child.writebacks[:0] }()
	if key != 0 {
		body, _ = w.opts.Bodies.take(key)
	}
	if body == nil {
		if b, ok := w.opts.Kinds.resolve(opts.Kind, opts.KindArgs); ok {
			body = b
		}
	}
	sr, err := child.rpcYield(&wire.Frame{Type: wire.TStartReq})
	if err != nil {
		return err
	}
	if sr.Label != "" {
		return errors.New(sr.Label)
	}
	// The start reply carries the child's pre-grants, as a dispatch would.
	if child.grants, child.writes, _, err = unmarshalDispatchPayload(sr.Payload, nil, nil); err != nil {
		return fmt.Errorf("create %q: start reply: %w", opts.Label, err)
	}
	child.checkins = slices.Grow(child.checkins, len(child.grants)*wire.AccessRecLen)
	if body == nil {
		child.finish(&wire.Frame{Type: wire.TTaskFail,
			Label: fmt.Sprintf("kind %q not registered on worker %d (inline execution)", opts.Kind, w.m)})
		return fmt.Errorf("create %q: kind %q not registered on this worker", opts.Label, opts.Kind)
	}
	if err := w.runBody(child, body); err != nil {
		child.finish(&wire.Frame{Type: wire.TTaskFail, Label: err.Error()})
		return nil // mirrors smp: the failure is recorded, the creator continues
	}
	child.finish(&wire.Frame{Type: wire.TTaskDone})
	return nil
}

// Alloc implements rt.TC: the worker keeps the live value and becomes
// the owner; the coordinator registers the object and caches a copy.
func (tc *workerTC) Alloc(initial any, label string) (access.ObjectID, error) {
	w := tc.w
	if format.KindOf(initial) == format.KindInvalid {
		return 0, fmt.Errorf("alloc %q: unsupported object type %T (portable Jade objects must be format-encodable)", label, initial)
	}
	img, err := format.Encode(initial, w.opts.Format)
	if err != nil {
		return 0, err
	}
	r, err := tc.rpc(&wire.Frame{Type: wire.TAllocReq,
		Label: label, A: uint64(w.opts.Format), Payload: img})
	if err != nil {
		return 0, err
	}
	if r.Label != "" {
		return 0, errors.New(r.Label)
	}
	id := access.ObjectID(r.A)
	w.mu.Lock()
	w.store[id] = initial
	w.bases[id] = syncBase{val: initial, ver: 0} // shared until a write grant (takeLocked)
	w.storeCond.Broadcast()
	w.mu.Unlock()
	return id, nil
}

// Charge implements rt.TC: computation takes real time on a live run.
func (tc *workerTC) Charge(work float64) {}

var _ rt.TC = (*workerTC)(nil)
