package live

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/transport/wire"
)

// tapConn records every frame the coordinator receives from a worker.
type tapConn struct {
	transport.Conn
	mu     sync.Mutex
	frames []*wire.Frame
}

func (c *tapConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err == nil {
		if f, derr := wire.Decode(msg); derr == nil {
			c.mu.Lock()
			c.frames = append(c.frames, &f)
			c.mu.Unlock()
		}
	}
	return msg, err
}

// taskFrames returns what the worker sent after its hello: the frames its
// tasks put on the wire.
func (c *tapConn) taskFrames() []*wire.Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*wire.Frame
	for _, f := range c.frames {
		if f.Type != wire.THello {
			out = append(out, f)
		}
	}
	return out
}

// newTapped builds a coordinator with one in-process worker whose inbound
// frames are recorded.
func newTapped(t *testing.T, opts Options) (*Exec, *tapConn) {
	t.Helper()
	bodies := NewBodyTable()
	a, b := inproc.Pipe()
	tap := &tapConn{Conn: a}
	go Serve(b, WorkerOptions{Name: "w1", Bodies: bodies})
	opts.Peers = []transport.Conn{tap}
	opts.Bodies = bodies
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return x, tap
}

func recs(pairs ...uint64) []byte {
	var out []byte
	for i := 0; i < len(pairs); i += 2 {
		out = wire.AppendAccessRec(out, pairs[i], byte(pairs[i+1]))
	}
	return out
}

func describe(frames []*wire.Frame) string {
	var b strings.Builder
	for _, f := range frames {
		fmt.Fprintf(&b, " %s[obj %d, %d check-ins]", wire.TypeName(f.Type), f.Obj, len(f.Checkins)/wire.AccessRecLen)
	}
	return b.String()
}

func allocN(tc rt.TC, n int) []access.ObjectID {
	ids := make([]access.ObjectID, n)
	for i := range ids {
		id, err := tc.Alloc([]int64{int64(i)}, fmt.Sprintf("o%d", i))
		if err != nil {
			panic(err)
		}
		ids[i] = id
	}
	return ids
}

func mustAccess(tc rt.TC, obj access.ObjectID, m access.Mode) []int64 {
	v, err := tc.Access(obj, m)
	if err != nil {
		panic(err)
	}
	return v.([]int64)
}

// TestCheckinsRideTaskDone: a dispatched task that performs four
// pre-granted accesses and nothing else puts exactly one frame on the
// wire — its completion, carrying the four check-ins in program order.
func TestCheckinsRideTaskDone(t *testing.T) {
	x, tap := newTapped(t, Options{})
	var ids []access.ObjectID
	var sum int64
	err := x.Run(func(tc rt.TC) {
		ids = allocN(tc, 4)
		decls := make([]access.Decl, len(ids))
		for i, id := range ids {
			decls[i] = access.Decl{Object: id, Mode: access.Read}
		}
		err := tc.Create(decls, rt.TaskOpts{Label: "reader"}, func(body rt.TC) {
			for _, id := range ids {
				sum += mustAccess(body, id, access.Read)[0]
			}
		})
		if err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 0+1+2+3 {
		t.Errorf("task read sum %d, want 6", sum)
	}
	frames := tap.taskFrames()
	if len(frames) != 1 || frames[0].Type != wire.TTaskDone {
		t.Fatalf("worker sent%s, want one task-done", describe(frames))
	}
	r := uint64(access.Read)
	want := recs(uint64(ids[0]), r, uint64(ids[1]), r, uint64(ids[2]), r, uint64(ids[3]), r)
	if string(frames[0].Checkins) != string(want) {
		t.Errorf("task-done carries check-ins %x, want %x", frames[0].Checkins, want)
	}
	if v := x.Engine().Stats().Violations; v != 0 {
		t.Errorf("%d violations", v)
	}
}

// TestCheckinsPrecedeTheirCarrier: check-ins enter the engine before the
// frame they ride. A release in the middle of a task carries the accesses
// before it, so the release finds its check-out (applied after, it would
// be dropped and the view would stay live); the child created next
// conflicts with exactly that view, so the create only succeeds if both
// were applied in program order. An allocation carries its check-ins the
// same way.
func TestCheckinsPrecedeTheirCarrier(t *testing.T) {
	x, tap := newTapped(t, Options{})
	var a, b, c access.ObjectID
	err := x.Run(func(tc rt.TC) {
		ids := allocN(tc, 3)
		a, b, c = ids[0], ids[1], ids[2]
		decls := []access.Decl{{Object: a, Mode: access.ReadWrite}, {Object: b, Mode: access.ReadWrite}, {Object: c, Mode: access.Read}}
		err := tc.Create(decls, rt.TaskOpts{Label: "parent"}, func(body rt.TC) {
			mustAccess(body, a, access.ReadWrite)[0] = 10
			mustAccess(body, b, access.ReadWrite)[0] = 20
			body.EndAccess(a, access.ReadWrite)
			mustAccess(body, c, access.Read)
			if _, err := body.Alloc([]int64{7}, "scratch"); err != nil {
				panic(err)
			}
			err := body.Create([]access.Decl{{Object: a, Mode: access.ReadWrite}}, rt.TaskOpts{Label: "child"}, func(child rt.TC) {
				mustAccess(child, a, access.ReadWrite)[0]++
			})
			if err != nil {
				panic(err)
			}
		})
		if err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.ObjectValue(a).([]int64)[0]; got != 11 {
		t.Errorf("object a = %d, want 11", got)
	}
	if got := x.ObjectValue(b).([]int64)[0]; got != 20 {
		t.Errorf("object b = %d, want 20", got)
	}
	rw, r := uint64(access.ReadWrite), uint64(access.Read)
	var end, alloc, create *wire.Frame
	for _, f := range tap.taskFrames() {
		switch {
		case f.Type == wire.TEndAccess && end == nil:
			end = f
		case f.Type == wire.TAllocReq:
			alloc = f
		case f.Type == wire.TCreateReq:
			create = f
		case f.Type == wire.TAccessReq && f.Req == 0:
			t.Errorf("a standalone access notify is still on the wire: %+v", f)
		}
	}
	if end == nil || alloc == nil || create == nil {
		t.Fatalf("worker sent%s, want an end-access, an alloc and a create", describe(tap.taskFrames()))
	}
	if want := recs(uint64(a), rw, uint64(b), rw); string(end.Checkins) != string(want) {
		t.Errorf("end-access carries %x, want the two accesses before it %x", end.Checkins, want)
	}
	if want := recs(uint64(c), r); string(alloc.Checkins) != string(want) {
		t.Errorf("alloc carries %x, want the access before it %x", alloc.Checkins, want)
	}
	if len(create.Checkins) != 0 {
		t.Errorf("create carries %x, want nothing: the alloc took the pending list", create.Checkins)
	}
}

// TestCreateSeesPendingCheckin is the other half: a task that creates a
// conflicting child while still holding a pre-granted view has broken the
// programming model, and the engine can only say so if the view's check-in
// — which nothing had carried yet — is applied before the create it rides.
func TestCreateSeesPendingCheckin(t *testing.T) {
	x, _ := newTapped(t, Options{})
	err := x.Run(func(tc rt.TC) {
		a := allocN(tc, 1)[0]
		err := tc.Create([]access.Decl{{Object: a, Mode: access.ReadWrite}}, rt.TaskOpts{Label: "parent"}, func(body rt.TC) {
			mustAccess(body, a, access.ReadWrite)
			body.Create([]access.Decl{{Object: a, Mode: access.ReadWrite}}, rt.TaskOpts{Label: "child"}, func(rt.TC) {})
		})
		if err != nil {
			panic(err)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "while holding a live") {
		t.Fatalf("Run = %v, want the live-view violation", err)
	}
}

// scriptedWorker is a worker with no runtime behind it: it says hello and
// then hands every frame it receives — a dispatch riding a push after the
// push itself — to handle, which answers through send.
func scriptedWorker(conn transport.Conn, handle func(f *wire.Frame, send func(*wire.Frame))) {
	send := func(f *wire.Frame) {
		if enc, err := wire.Encode(f); err == nil {
			conn.Send(enc)
		}
	}
	send(&wire.Frame{Type: wire.THello, Label: "scripted", C: 1})
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		f, err := wire.Decode(msg)
		if err != nil {
			return
		}
		handle(&f, send)
		if len(f.Dispatch) > 0 {
			if df, err := wire.Decode(f.Dispatch); err == nil {
				handle(&df, send)
			}
		}
	}
}

// newScripted builds a coordinator whose only worker is scripted.
func newScripted(t *testing.T, handle func(f *wire.Frame, send func(*wire.Frame))) *Exec {
	t.Helper()
	a, b := inproc.Pipe()
	t.Cleanup(func() { a.Close() }) // a run that dies leaves its worker waiting
	go scriptedWorker(b, handle)
	x, err := New(Options{Peers: []transport.Conn{a}})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// runScripted runs one task that declares a read of the run's only object
// on a worker that answers its dispatch with whatever reply builds.
func runScripted(t *testing.T, reply func(task uint64) *wire.Frame) (*Exec, error) {
	t.Helper()
	x := newScripted(t, func(f *wire.Frame, send func(*wire.Frame)) {
		if f.Type == wire.TDispatch {
			send(reply(f.Task))
		}
	})
	return x, x.Run(func(tc rt.TC) {
		obj := allocN(tc, 1)[0]
		err := tc.Create([]access.Decl{{Object: obj, Mode: access.Read}}, rt.TaskOpts{Label: "victim"}, func(rt.TC) {})
		if err != nil {
			panic(err)
		}
	})
}

// TestMalformedCheckins: what a broken or hostile worker can put in the
// check-in section ends the run with an error, never a panic. A list that
// is not a whole number of records does not decode; a well-formed list
// naming an object the task never declared is an access violation like any
// other; so is one asking for a mode the dispatch did not grant.
func TestMalformedCheckins(t *testing.T) {
	_, err := runScripted(t, func(task uint64) *wire.Frame {
		return &wire.Frame{Type: wire.TTaskDone, Task: task, Checkins: make([]byte, wire.AccessRecLen+4)}
	})
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("ragged check-in list: Run = %v, want wire.ErrCorrupt", err)
	}

	x, err := runScripted(t, func(task uint64) *wire.Frame {
		return &wire.Frame{Type: wire.TTaskDone, Task: task, Checkins: recs(999, uint64(access.Read))}
	})
	if err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("check-in of an undeclared object: Run = %v, want an access violation", err)
	}
	if v := x.Engine().Stats().Violations; v == 0 {
		t.Error("check-in of an undeclared object recorded no violation")
	}

	x, err = runScripted(t, func(task uint64) *wire.Frame {
		// The run's only object is the first id of the default range.
		return &wire.Frame{Type: wire.TTaskDone, Task: task, Checkins: recs(1, uint64(access.ReadWrite))}
	})
	if err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("check-in beyond the granted mode: Run = %v, want an access violation", err)
	}
	if v := x.Engine().Stats().Violations; v == 0 {
		t.Error("check-in beyond the granted mode recorded no violation")
	}

	_, err = runScripted(t, func(task uint64) *wire.Frame {
		return &wire.Frame{Type: wire.TTaskDone, Task: task + 1000, Checkins: recs(1, uint64(access.Read))}
	})
	if err == nil || !strings.Contains(err.Error(), "unknown task") {
		t.Errorf("check-in for a task nobody dispatched: Run = %v, want a protocol error", err)
	}
}

// evictTap is the coordinator's end of a pipe to a worker that, at the
// moment it is told it is dead, still gets one frame out: what a body that
// was running, or failing because of the eviction, sends before the fence
// cuts the connection. Not a transport.Fencer, so what is queued when the
// coordinator hangs up is still delivered.
type evictTap struct {
	transport.Conn
	lastWords func()
}

func (c *evictTap) Send(msg []byte) error {
	if len(msg) > 2 && msg[2] == wire.TEvict {
		c.lastWords()
	}
	return c.Conn.Send(msg)
}

// TestLateFramesFromDeadMemberDropped: once a member is declared dead its
// task is re-executed elsewhere, and whatever the dead member still says
// about it — here a failure report caused by the eviction itself — is late
// traffic, dropped rather than applied to the run.
func TestLateFramesFromDeadMemberDropped(t *testing.T) {
	a, b := inproc.Pipe()
	dispatched := make(chan uint64, 1)
	go scriptedWorker(b, func(f *wire.Frame, send func(*wire.Frame)) {
		if f.Type == wire.TDispatch {
			dispatched <- f.Task
		}
	})
	var task uint64
	tap := &evictTap{Conn: a, lastWords: func() {
		enc, err := wire.Encode(&wire.Frame{Type: wire.TTaskFail, Task: task, Label: "panic: live: worker evicted"})
		if err != nil {
			panic(err)
		}
		b.Send(enc)
	}}
	bodies := NewBodyTable()
	x, err := New(Options{Peers: []transport.Conn{tap}, Bodies: bodies})
	if err != nil {
		t.Fatal(err)
	}
	var obj access.ObjectID
	done := make(chan error, 1)
	go func() {
		done <- x.Run(func(tc rt.TC) {
			obj = allocN(tc, 1)[0]
			err := tc.Create([]access.Decl{{Object: obj, Mode: access.ReadWrite}}, rt.TaskOpts{Label: "survivor"}, func(body rt.TC) {
				mustAccess(body, obj, access.ReadWrite)[0] = 99
			})
			if err != nil {
				panic(err)
			}
		})
	}()
	task = <-dispatched
	if err := x.KillWorker(1); err != nil {
		t.Fatal(err)
	}
	// A real worker joins and inherits the task.
	c, d := inproc.Pipe()
	go Serve(d, WorkerOptions{Name: "heir", Bodies: bodies})
	if _, err := x.Admit(c); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run = %v, want the dead member's failure report ignored", err)
	}
	if got := x.ObjectValue(obj).([]int64)[0]; got != 99 {
		t.Errorf("object = %d, want 99 from the re-executed task", got)
	}
}
