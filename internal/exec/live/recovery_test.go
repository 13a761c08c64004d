package live

import (
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/rt"
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
