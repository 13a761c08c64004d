package live

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/netmodel"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
)

// TestKillAfterCommitPromotesTheCache: a worker killed the moment its
// writer's completion has been applied takes nothing with it. The bytes
// came home on the completion, so the sweep promotes the coordinator's
// cache for what the worker owned — no task is replayed, none is
// re-executed — and the reader, elsewhere, sees the write.
func TestKillAfterCommitPromotesTheCache(t *testing.T) {
	var x *Exec
	x = newInproc(t, 2, Options{OnTaskDone: func(done int) {
		if done == 1 {
			// On worker 1's own receive loop, right behind the completion.
			if err := x.KillWorker(1); err != nil {
				t.Error(err)
			}
		}
	}})
	var o, res access.ObjectID
	err := x.Run(func(tc rt.TC) {
		ids := allocN(tc, 2)
		o, res = ids[0], ids[1]
		mustCreate(tc, []access.Decl{{Object: o, Mode: access.ReadWrite}}, onMachine("writer", 1), func(b rt.TC) {
			mustAccess(b, o, access.ReadWrite)[0] = 7
		})
		decls, body := relay(o, res)
		mustCreate(tc, decls, onMachine("reader", 2), body)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.ObjectValue(res).([]int64)[0]; got != 7 {
		t.Errorf("reader saw %d, want 7", got)
	}
	fs := x.Stats().Fault
	if fs.CrashesDetected != 1 || fs.ObjectsRebuilt < 1 {
		t.Errorf("fault stats %+v: want one crash detected and the writer's object taken over", fs)
	}
	if fs.TasksReplayed != 0 || fs.TasksReexecuted != 0 {
		t.Errorf("fault stats %+v: a committed writer must be neither replayed nor re-executed", fs)
	}
}

// TestKillMidBodyReexecutesOnlyTheUncommitted: a chain of three tasks over
// one object; the worker running the middle one is killed while the body is
// half done, having already scribbled on its copy. The sweep rolls the
// object back to what the first task committed (the cache), re-executes the
// middle task alone — the first ran once and is not replayed — and the
// result is the serial one.
func TestKillMidBodyReexecutesOnlyTheUncommitted(t *testing.T) {
	x := newInproc(t, 2, Options{})
	var firstRuns, middleRuns atomic.Int32
	started, killed := make(chan int, 1), make(chan struct{})
	go func() {
		if err := x.KillWorker(<-started); err != nil {
			t.Error(err)
		}
		close(killed)
	}()
	var o, res access.ObjectID
	err := x.Run(func(tc rt.TC) {
		ids := allocN(tc, 2)
		o, res = ids[0], ids[1]
		rw := []access.Decl{{Object: o, Mode: access.ReadWrite}}
		mustCreate(tc, rw, rt.TaskOpts{Label: "first"}, func(b rt.TC) {
			firstRuns.Add(1)
			mustAccess(b, o, access.ReadWrite)[0] = 5
		})
		mustCreate(tc, rw, rt.TaskOpts{Label: "middle"}, func(b rt.TC) {
			v := mustAccess(b, o, access.ReadWrite)
			v[0] += 2
			if middleRuns.Add(1) == 1 {
				started <- b.Machine()
				<-killed // this attempt's worker is gone; whatever it does next is lost
			}
		})
		decls, body := relay(o, res)
		mustCreate(tc, decls, rt.TaskOpts{Label: "last"}, body)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, seen := x.ObjectValue(o).([]int64)[0], x.ObjectValue(res).([]int64)[0]; got != 7 || seen != 7 {
		t.Errorf("object = %d, last task saw %d, want 7 and 7 (serial)", got, seen)
	}
	if f, m := firstRuns.Load(), middleRuns.Load(); f != 1 || m != 2 {
		t.Errorf("first task ran %d times, middle task %d: want 1 and 2", f, m)
	}
	fs := x.Stats().Fault
	if fs.TasksReexecuted != 1 || fs.TasksReplayed != 0 {
		t.Errorf("fault stats %+v: want exactly the uncommitted task re-executed and nothing replayed", fs)
	}
}

// TestSupersededWaitNeverAnswers: a task's with-cont conversion waits in the
// engine behind an earlier writer when the worker running it dies. The sweep
// re-executes the task on the other worker that can run it, and the first
// attempt's wait — still registered in the engine — fires only after that,
// when the writer retires. It answers nothing: no frame is sent to the dead
// member from the sweep on. The second attempt's result is the serial one.
func TestSupersededWaitNeverAnswers(t *testing.T) {
	bodies := NewBodyTable()
	caps := [][]string{nil, {"b"}, {"b"}}
	peers := make([]transport.Conn, len(caps))
	for i := range peers {
		a, b := inproc.Pipe()
		peers[i] = a
		go Serve(b, WorkerOptions{Name: fmt.Sprintf("w%d", i+1), Bodies: bodies, Caps: caps[i]})
	}
	x, err := New(Options{Peers: peers, Bodies: bodies})
	if err != nil {
		t.Fatal(err)
	}
	var attempts atomic.Int32
	victim, open := make(chan int, 1), make(chan struct{})
	var dead, deadSends int // set before open closes
	go func() {
		m := <-victim
		dead = m
		// The gate's holder is running and the writer waits for it, so the
		// conversion is the second wait the engine has seen.
		waitFor(t, "the conversion to wait", func() bool { return x.Engine().Stats().Waits >= 2 })
		if err := x.KillWorker(m); err != nil {
			t.Error(err)
		}
		waitFor(t, "the sweep", func() bool { return x.Stats().Fault.TasksReexecuted == 1 })
		deadSends = x.Stats().Net.ByLink[netmodel.Link{Src: 0, Dst: m}].Messages
		close(open)
	}()
	var g, o, res access.ObjectID
	err = x.Run(func(tc rt.TC) {
		ids := allocN(tc, 3)
		g, o, res = ids[0], ids[1], ids[2]
		mustCreate(tc, []access.Decl{{Object: g, Mode: access.ReadWrite}}, onMachine("gate", 1), func(b rt.TC) {
			mustAccess(b, g, access.ReadWrite)[0] += 5
			<-open
		})
		mustCreate(tc, []access.Decl{{Object: g, Mode: access.Read}, {Object: o, Mode: access.ReadWrite}}, rt.TaskOpts{Label: "writer"}, func(b rt.TC) {
			v := mustAccess(b, o, access.ReadWrite)
			v[0] = v[0]*10 + mustAccess(b, g, access.Read)[0] + 1
		})
		decls := []access.Decl{{Object: o, Mode: access.DeferredRead}, {Object: res, Mode: access.ReadWrite}}
		mustCreate(tc, decls, rt.TaskOpts{Label: "reader", RequireCap: "b"}, func(b rt.TC) {
			if attempts.Add(1) == 1 {
				victim <- b.Machine()
			}
			if err := b.Convert(o, access.DeferredRead); err != nil {
				panic(err) // the first attempt's worker is gone
			}
			mustAccess(b, res, access.ReadWrite)[0] = mustAccess(b, o, access.Read)[0]*3 + 1
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Serially: g = 0+5, o = 1*10+5+1 = 16, res = 16*3+1 = 49.
	if got, seen := x.ObjectValue(o).([]int64)[0], x.ObjectValue(res).([]int64)[0]; got != 16 || seen != 49 {
		t.Errorf("writer left %d, reader computed %d: want 16 and 49 (serial)", got, seen)
	}
	if n := attempts.Load(); n != 2 {
		t.Errorf("reader ran %d times, want 2", n)
	}
	if sent := x.Stats().Net.ByLink[netmodel.Link{Src: 0, Dst: dead}].Messages; sent != deadSends {
		t.Errorf("%d frames were sent to dead worker %d after the sweep", sent-deadSends, dead)
	}
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}
