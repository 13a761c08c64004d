package smp

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/exec/exectest"
	"repro/internal/rt"
	"repro/internal/trace"
)

func TestSimpleProgram(t *testing.T) {
	x := New(Options{Procs: 4})
	var id access.ObjectID
	err := x.Run(func(tc rt.TC) {
		var err error
		id, err = tc.Alloc([]int64{0, 0}, "counter")
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 5; i++ {
			err := tc.Create(
				[]access.Decl{{Object: id, Mode: access.ReadWrite}},
				rt.TaskOpts{Label: "inc"},
				func(tc rt.TC) {
					v, err := tc.Access(id, access.ReadWrite)
					if err != nil {
						panic(err)
					}
					v.([]int64)[0]++
				})
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.ObjectValue(id).([]int64)[0]; got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestRootReadsBackAfterTasks(t *testing.T) {
	x := New(Options{Procs: 2})
	err := x.Run(func(tc rt.TC) {
		id, err := tc.Alloc([]float64{1}, "v")
		if err != nil {
			panic(err)
		}
		for i := 0; i < 3; i++ {
			if err := tc.Create(
				[]access.Decl{{Object: id, Mode: access.ReadWrite}},
				rt.TaskOpts{},
				func(tc rt.TC) {
					v, _ := tc.Access(id, access.ReadWrite)
					v.([]float64)[0] *= 2
				}); err != nil {
				panic(err)
			}
		}
		// Root read must wait for all three doublings (serial semantics).
		v, err := tc.Access(id, access.Read)
		if err != nil {
			panic(err)
		}
		if got := v.([]float64)[0]; got != 8 {
			t.Errorf("root read %v, want 8", got)
		}
		tc.EndAccess(id, access.Read)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelismIsReal(t *testing.T) {
	x := New(Options{Procs: 4})
	var running, maxRunning atomic.Int32
	err := x.Run(func(tc rt.TC) {
		for i := 0; i < 4; i++ {
			id, err := tc.Alloc([]byte{0}, "o")
			if err != nil {
				panic(err)
			}
			if err := tc.Create(
				[]access.Decl{{Object: id, Mode: access.Write}},
				rt.TaskOpts{},
				func(tc rt.TC) {
					n := running.Add(1)
					for {
						m := maxRunning.Load()
						if n <= m || maxRunning.CompareAndSwap(m, n) {
							break
						}
					}
					time.Sleep(50 * time.Millisecond)
					running.Add(-1)
				}); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxRunning.Load() < 2 {
		t.Fatalf("independent tasks never overlapped (max concurrent = %d)", maxRunning.Load())
	}
}

func TestViolationSurfacesFromRun(t *testing.T) {
	x := New(Options{Procs: 2})
	err := x.Run(func(tc rt.TC) {
		id, err := tc.Alloc([]int64{0}, "o")
		if err != nil {
			panic(err)
		}
		_ = tc.Create(
			[]access.Decl{{Object: id, Mode: access.Read}},
			rt.TaskOpts{Label: "bad"},
			func(tc rt.TC) {
				// Undeclared write: must be detected, not executed.
				if _, err := tc.Access(id, access.Write); err == nil {
					t.Error("undeclared write should error")
				}
			})
	})
	if err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("Run should report the violation, got %v", err)
	}
}

func TestPanickingTaskDoesNotHangProgram(t *testing.T) {
	x := New(Options{Procs: 2})
	done := make(chan error, 1)
	go func() {
		done <- x.Run(func(tc rt.TC) {
			id, _ := tc.Alloc([]int64{0}, "o")
			_ = tc.Create([]access.Decl{{Object: id, Mode: access.Write}}, rt.TaskOpts{}, func(tc rt.TC) {
				panic("boom")
			})
			// A second task behind the panicking one must still run.
			_ = tc.Create([]access.Decl{{Object: id, Mode: access.Write}}, rt.TaskOpts{}, func(tc rt.TC) {})
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("want panic error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("program hung after task panic")
	}
}

func TestThrottleBoundsLiveTasksWithoutDeadlock(t *testing.T) {
	x := New(Options{Procs: 2, MaxLiveTasks: 2})
	var created int
	err := x.Run(func(tc rt.TC) {
		for i := 0; i < 20; i++ {
			id, err := tc.Alloc([]int64{0}, "o")
			if err != nil {
				panic(err)
			}
			if err := tc.Create([]access.Decl{{Object: id, Mode: access.Write}}, rt.TaskOpts{}, func(tc rt.TC) {
				time.Sleep(time.Millisecond)
			}); err != nil {
				panic(err)
			}
			created++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if created != 20 {
		t.Fatalf("created = %d", created)
	}
	st := x.Engine().Stats()
	// All 20 children plus the main program complete.
	if st.TasksCreated != 20 || st.TasksCompleted != 21 {
		t.Fatalf("created/completed = %d/%d", st.TasksCreated, st.TasksCompleted)
	}
}

func TestDeferredPipelineOnSMP(t *testing.T) {
	// The back-substitution pattern: consumer starts before producers
	// finish, converting reads one at a time.
	x := New(Options{Procs: 4})
	const n = 5
	var consumerSaw [n]int64
	err := x.Run(func(tc rt.TC) {
		ids := make([]access.ObjectID, n)
		for i := range ids {
			ids[i], _ = tc.Alloc([]int64{0}, "col")
		}
		// Producers write each object.
		for i := 0; i < n; i++ {
			i := i
			if err := tc.Create(
				[]access.Decl{{Object: ids[i], Mode: access.ReadWrite}},
				rt.TaskOpts{Label: "produce"},
				func(tc rt.TC) {
					v, _ := tc.Access(ids[i], access.ReadWrite)
					v.([]int64)[0] = int64(i + 1)
				}); err != nil {
				panic(err)
			}
		}
		// Consumer declares all reads deferred, converts one at a time.
		decls := make([]access.Decl, n)
		for i := range decls {
			decls[i] = access.Decl{Object: ids[i], Mode: access.DeferredRead}
		}
		if err := tc.Create(decls, rt.TaskOpts{Label: "consume"}, func(tc rt.TC) {
			for i := 0; i < n; i++ {
				if err := tc.Convert(ids[i], access.DeferredRead); err != nil {
					panic(err)
				}
				v, err := tc.Access(ids[i], access.Read)
				if err != nil {
					panic(err)
				}
				consumerSaw[i] = v.([]int64)[0]
				tc.EndAccess(ids[i], access.Read)
				if err := tc.Retract(ids[i], access.AnyRead); err != nil {
					panic(err)
				}
			}
		}); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range consumerSaw {
		if consumerSaw[i] != int64(i+1) {
			t.Fatalf("consumer saw %v", consumerSaw)
		}
	}
}

func TestAllocRejectsUnsupportedTypes(t *testing.T) {
	x := New(Options{Procs: 1})
	err := x.Run(func(tc rt.TC) {
		if _, err := tc.Alloc(map[string]int{}, "bad"); err == nil {
			t.Error("unsupported type should be rejected")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceRecordsLifecycle(t *testing.T) {
	x := New(Options{Procs: 2, Trace: true})
	err := x.Run(func(tc rt.TC) {
		id, _ := tc.Alloc([]int64{0}, "o")
		// w1 ends only once w2 exists, so the two writers are in the
		// object's queue together and their dependence is detected.
		created := make(chan struct{})
		_ = tc.Create([]access.Decl{{Object: id, Mode: access.Write}}, rt.TaskOpts{Label: "w1"}, func(tc rt.TC) { <-created })
		_ = tc.Create([]access.Decl{{Object: id, Mode: access.Write}}, rt.TaskOpts{Label: "w2"}, func(tc rt.TC) {})
		close(created)
	})
	if err != nil {
		t.Fatal(err)
	}
	log := x.Log()
	if len(log.Filter(trace.TaskCreated)) != 2 {
		t.Fatalf("created events = %d", len(log.Filter(trace.TaskCreated)))
	}
	if len(log.Filter(trace.TaskCompleted)) != 3 { // two tasks + main
		t.Fatalf("completed events = %d", len(log.Filter(trace.TaskCompleted)))
	}
	if len(log.Filter(trace.Depend)) != 1 {
		t.Fatalf("depend events = %d", len(log.Filter(trace.Depend)))
	}
}

func TestConformanceAgainstSerialReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		spec := exectest.ProgramSpec{
			Objects:      6,
			Tasks:        40,
			Seed:         seed,
			UseDeferred:  seed%2 == 0,
			UseHierarchy: seed%3 == 0,
			UseCommute:   seed%2 == 1,
		}
		if err := exectest.Check(func() rt.Exec {
			return New(Options{Procs: 8})
		}, spec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConformanceUnderThrottle(t *testing.T) {
	spec := exectest.ProgramSpec{Objects: 4, Tasks: 60, Seed: 99, UseDeferred: true, UseHierarchy: true, UseCommute: true}
	if err := exectest.Check(func() rt.Exec {
		return New(Options{Procs: 3, MaxLiveTasks: 4})
	}, spec); err != nil {
		t.Fatal(err)
	}
}

func TestConformanceSingleProc(t *testing.T) {
	spec := exectest.ProgramSpec{Objects: 5, Tasks: 30, Seed: 7, UseDeferred: true}
	if err := exectest.Check(func() rt.Exec {
		return New(Options{Procs: 1})
	}, spec); err != nil {
		t.Fatal(err)
	}
}
