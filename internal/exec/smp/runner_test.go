package smp_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/apps/cholesky"
	"repro/internal/exec/smp"
	"repro/internal/rt"
	"repro/jade"
)

// TestCholeskyStartsFewRunners: a 12×12-grid Cholesky at Procs 4 runs its
// 1,740 tasks on runners it reuses, starting at most one per twenty tasks
// (one per task when every ready task had a goroutine of its own), and
// factors the matrix exactly as the serial code does.
func TestCholeskyStartsFewRunners(t *testing.T) {
	m := cholesky.Symbolic(cholesky.GridLaplacian(12))
	want := m.Clone()
	cholesky.FactorSerial(want)
	r := jade.NewSMP(jade.SMPConfig{Procs: 4})
	var jm *cholesky.JadeMatrix
	before := smp.RunnersStarted()
	if err := r.Run(func(tk *jade.Task) {
		jm = cholesky.ToJade(tk, m, 0)
		jm.Factor(tk)
	}); err != nil {
		t.Fatal(err)
	}
	started := smp.RunnersStarted() - before
	if got := cholesky.FromJade(r, jm); !reflect.DeepEqual(got.Cols, want.Cols) {
		t.Fatal("factor differs from the serial one")
	}
	tasks := r.Report().Tasks.Run
	if per := float64(started) / float64(tasks); per > 0.05 {
		t.Errorf("%d runners started for %d tasks (%.3f per task), want ≤ 0.05", started, tasks, per)
	} else {
		t.Logf("%d runners started for %d tasks (%.4f per task)", started, tasks, per)
	}
}

// TestRunJoinsRunners: when Run returns, the runners it started are gone,
// the parked one included, so the goroutine count is back where it was.
func TestRunJoinsRunners(t *testing.T) {
	for _, procs := range []int{1, 4} {
		before := runtime.NumGoroutine()
		x := smp.New(smp.Options{Procs: procs})
		err := x.Run(func(tc rt.TC) {
			for i := 0; i < 50; i++ {
				id, err := tc.Alloc([]int64{0}, "o")
				if err != nil {
					panic(err)
				}
				if err := tc.Create([]access.Decl{{Object: id, Mode: access.ReadWrite}}, rt.TaskOpts{},
					func(tc rt.TC) {}); err != nil {
					panic(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// A joined runner has signalled its WaitGroup; its goroutine may
		// take a moment longer to leave the scheduler's count. (A goroutine
		// an earlier test left may leave meanwhile too, so fewer is fine.)
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Fatalf("Procs %d: %d goroutines after Run, %d before", procs, after, before)
		}
	}
}

// TestReadyTasksStartInReadyOrder: tasks readied while every slot is busy
// start in the order they became ready. One slot is held by a task that
// waits for the last of them, so the main program's slot is the only one
// they can run on once it returns.
func TestReadyTasksStartInReadyOrder(t *testing.T) {
	const n = 40
	x := smp.New(smp.Options{Procs: 2})
	var mu sync.Mutex
	var order []int
	release := make(chan struct{})
	err := x.Run(func(tc rt.TC) {
		hold, err := tc.Alloc([]int64{0}, "hold")
		if err != nil {
			panic(err)
		}
		if err := tc.Create([]access.Decl{{Object: hold, Mode: access.ReadWrite}}, rt.TaskOpts{Label: "hold"},
			func(tc rt.TC) { <-release }); err != nil {
			panic(err)
		}
		for i := 0; i < n; i++ {
			id, err := tc.Alloc([]int64{0}, "o")
			if err != nil {
				panic(err)
			}
			if err := tc.Create([]access.Decl{{Object: id, Mode: access.ReadWrite}}, rt.TaskOpts{},
				func(tc rt.TC) {
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
					if i == n-1 {
						close(release)
					}
				}); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range order {
		if k != i {
			t.Fatalf("start order %v, want ready order", order)
		}
	}
	if len(order) != n {
		t.Fatalf("%d of %d tasks ran", len(order), n)
	}
}
