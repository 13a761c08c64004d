package live_test

// Where a ready task's dispatch and a worker's request run: on the goroutine
// that made the task ready or received the request, or on the one that
// later fires what it waits for, with the worker's body on a runner that
// outlives its task — no goroutine of its own on either side — and in an
// order the trace can show.

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/apps/cholesky"
	"repro/internal/exec/exectest"
	"repro/internal/exec/live"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/transport/wire"
	"repro/jade"
)

// newFleet builds a coordinator over n in-process workers. A non-nil reqs
// counts the requests the workers send it (countingConn).
func newFleet(t *testing.T, n int, opts live.Options, reqs *atomic.Int64) *live.Exec {
	t.Helper()
	bodies := live.NewBodyTable()
	opts.Peers = make([]transport.Conn, n)
	for i := range opts.Peers {
		a, b := inproc.Pipe()
		opts.Peers[i] = a
		if reqs != nil {
			opts.Peers[i] = countingConn{a, reqs}
		}
		go live.Serve(b, live.WorkerOptions{Name: fmt.Sprintf("w%d", i+1), Bodies: bodies})
	}
	opts.Bodies = bodies
	x, err := live.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// countingConn is the coordinator's end of a worker connection that counts
// the worker's requests of the kinds that can wait: an access, a
// conversion, an allocation or an inline child's start.
type countingConn struct {
	transport.Conn
	reqs *atomic.Int64
}

func (c countingConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err == nil {
		if f, derr := wire.Decode(msg); derr == nil {
			switch f.Type {
			case wire.TAccessReq, wire.TConvertReq, wire.TAllocReq, wire.TStartReq:
				c.reqs.Add(1)
			}
		}
	}
	return msg, err
}

// wideProgram creates n tasks over 64 counters, each adding its index to
// one counter under a read of a shared input: a fleet's worth of tasks is
// ready at any moment, as in a factorization's wide middle. It returns the
// counters and what a serial run leaves in them.
func wideProgram(n int) (main func(rt.TC), counters []access.ObjectID, want []int64) {
	const width = 64
	counters = make([]access.ObjectID, width)
	want = make([]int64, width)
	for i := 0; i < n; i++ {
		want[i%width] += int64(i)
	}
	main = func(tc rt.TC) {
		in, err := tc.Alloc([]int64{1}, "in")
		if err != nil {
			panic(err)
		}
		for k := range counters {
			if counters[k], err = tc.Alloc([]int64{0}, fmt.Sprintf("c%d", k)); err != nil {
				panic(err)
			}
		}
		for i := 0; i < n; i++ {
			i, c := i, counters[i%width]
			decls := []access.Decl{{Object: in, Mode: access.Read}, {Object: c, Mode: access.ReadWrite}}
			err := tc.Create(decls, rt.TaskOpts{Label: "add"}, func(b rt.TC) {
				v, err := b.Access(in, access.Read)
				if err != nil {
					panic(err)
				}
				s, err := b.Access(c, access.ReadWrite)
				if err != nil {
					panic(err)
				}
				s.([]int64)[0] += int64(i) * v.([]int64)[0]
			})
			if err != nil {
				panic(err)
			}
		}
	}
	return main, counters, want
}

// TestDispatchStartsNoGoroutine: over 2000 tasks on an inproc fleet, the
// goroutines started on tasks' behalf — the dispatch's, the worker's body
// runner, any handler's — number at most one per hundred dispatched tasks
// (two per task when each dispatch and each body had a goroutine of its
// own).
func TestDispatchStartsNoGoroutine(t *testing.T) {
	const tasks = 2000
	var dispatched atomic.Int64
	x := newFleet(t, 4, live.Options{OnTaskDone: func(done int) { dispatched.Store(int64(done)) }}, nil)
	main, counters, want := wideProgram(tasks)
	before := live.GoroutinesStarted()
	if err := x.Run(main); err != nil {
		t.Fatal(err)
	}
	started := live.GoroutinesStarted() - before
	for k, id := range counters {
		if got := x.ObjectValue(id).([]int64)[0]; got != want[k] {
			t.Fatalf("counter %d = %d, want %d", k, got, want[k])
		}
	}
	n := dispatched.Load()
	if n < tasks/2 {
		t.Fatalf("only %d of %d tasks were dispatched; the rest ran inline and prove nothing", n, tasks)
	}
	perAtMost(t, started, n, "dispatched task", 0.01)
}

// perAtMost fails the test when started goroutines come to more than bound
// per each of n things.
func perAtMost(t *testing.T, started, n int64, what string, bound float64) {
	t.Helper()
	if per := float64(started) / float64(n); per > bound {
		t.Errorf("%d goroutines started for %d × %s (%.4f per %s), want ≤ %v", started, n, what, per, what, bound)
	} else {
		t.Logf("%d goroutines started for %d × %s (%.4f per %s)", started, n, what, per, what)
	}
}

// TestCholeskyStartsFewRunners: a 12×12 grid-Laplacian Cholesky (1,740
// tasks, bodies of tens of nanoseconds) on four inproc workers starts at
// most one goroutine per hundred tasks, over three factorizations. A
// worker's runners outlive their tasks, and a dispatch that arrives while a
// runner has taken a task but not yet its slot finds that runner counted
// (a runner per four tasks when it started another, which then exited).
func TestCholeskyStartsFewRunners(t *testing.T) {
	m := cholesky.Symbolic(cholesky.GridLaplacian(12))
	oracle := m.Clone()
	cholesky.FactorSerial(oracle)
	var started, tasks int64
	for op := 0; op < 3; op++ {
		r, err := jade.NewLive(jade.LiveConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		before := live.GoroutinesStarted()
		var jm *cholesky.JadeMatrix
		if err := r.Run(func(tk *jade.Task) { jm = cholesky.ToJade(tk, m, 0); jm.Factor(tk) }); err != nil {
			t.Fatal(err)
		}
		started += live.GoroutinesStarted() - before
		tasks += int64(r.Report().Tasks.Run)
		if !reflect.DeepEqual(cholesky.FromJade(r, jm).Cols, oracle.Cols) {
			t.Fatal("the factor differs from the serial oracle")
		}
	}
	perAtMost(t, started, tasks, "task", 0.01)
}

// TestCholeskyMallocsPerTask: the same factorization on four inproc workers
// costs at most 32 heap allocations and 2.0 KiB a task (about 27 and 1.9 on
// go1.24), everything from the runtime's construction to the factor's
// read-back counted: a frame is decoded into a value on its receiver's
// stack, a dispatch's receive buffer goes back to the send pool, a dispatch
// is encoded once, riding its push without a copy, a pushed or written-back
// version lands in storage its receiver owns, and a write grant copies into
// the base the last write-back retired. Before those last two, a task cost
// 31 allocations and 2.15 KiB. Over tcp the bounds are the same: the reader
// fills pooled buffers and a connection borrows its read and batch buffers.
// The race detector's instrumentation allocates, so the count is only kept
// without it.
func TestCholeskyMallocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	m := cholesky.Symbolic(cholesky.GridLaplacian(12))
	oracle := m.Clone()
	cholesky.FactorSerial(oracle)
	// What the host adds is kept out of the count. A collection empties
	// the buffer pools, and how many fall inside a measured op depends on
	// the host; the scheduler's own per-processor state grows with
	// GOMAXPROCS. Without collections, and on at most four processors, the
	// count is the program's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), 4)))
	for _, transport := range []string{"inproc", "tcp"} {
		var mallocs, bytes, tasks uint64
		for op := 0; op < 4; op++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r, err := jade.NewLive(jade.LiveConfig{Workers: 4, Transport: transport})
			if err != nil {
				t.Fatal(err)
			}
			var jm *cholesky.JadeMatrix
			if err := r.Run(func(tk *jade.Task) { jm = cholesky.ToJade(tk, m, 0); jm.Factor(tk) }); err != nil {
				t.Fatal(err)
			}
			got := cholesky.FromJade(r, jm)
			runtime.ReadMemStats(&after)
			if !reflect.DeepEqual(got.Cols, oracle.Cols) {
				t.Fatalf("%s: the factor differs from the serial oracle", transport)
			}
			if op > 0 { // the first op warms the pools up
				mallocs += after.Mallocs - before.Mallocs
				bytes += after.TotalAlloc - before.TotalAlloc
				tasks += uint64(r.Report().Tasks.Run)
			}
		}
		per, kib := float64(mallocs)/float64(tasks), float64(bytes)/float64(tasks)/1024
		t.Logf("%s: %.1f allocations and %.2f KiB a task over %d tasks", transport, per, kib, tasks)
		if per > 32 {
			t.Errorf("%s: %.1f allocations a task, want ≤ 32", transport, per)
		}
		if kib > 2.0 {
			t.Errorf("%s: %.2f KiB allocated a task, want ≤ 2.0", transport, kib)
		}
	}
}

// TestRequestsStartNoGoroutine: a generated program with with-cont
// conversions and nested tasks, 2,000 top-level tasks on four inproc workers
// with a throttle low enough that workers inline children, so accesses,
// conversions and inline children's starts cross the wire, many of them
// waiting in the engine behind earlier tasks. The coordinator answers each
// at once or from the goroutine that fires what it waits for: the
// goroutines started come to at most one per hundred such requests (more
// than one per request when each had a handler goroutine).
func TestRequestsStartNoGoroutine(t *testing.T) {
	var reqs atomic.Int64
	spec := exectest.ProgramSpec{Objects: 6, Tasks: 2000, Seed: 1, UseDeferred: true, UseHierarchy: true}
	x := newFleet(t, 4, live.Options{MaxLiveTasks: 16}, &reqs)
	before := live.GoroutinesStarted()
	got, _, err := exectest.RunOn(x, spec)
	if err != nil {
		t.Fatal(err)
	}
	started := live.GoroutinesStarted() - before
	if want := exectest.RunSerial(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v (serial)", got, want)
	}
	perAtMost(t, started, reqs.Load(), "request", 0.01)
}

// TestTraceOrderPerTask: in a full trace, every task's lifecycle events
// appear in the order Created, Ready, Assigned, Started (Assigned only for a
// dispatched task), at non-decreasing times — whether the task was ready at
// its creation or made ready later by another task's retirement, and
// whether its creator was the main program, a worker's task, or it ran
// inline under the throttle.
func TestTraceOrderPerTask(t *testing.T) {
	for _, maxLive := range []int{0, 3} {
		x := newFleet(t, 3, live.Options{Trace: true, MaxLiveTasks: maxLive}, nil)
		err := x.Run(func(tc rt.TC) {
			ids := make([]access.ObjectID, 3)
			for k := range ids {
				var err error
				if ids[k], err = tc.Alloc([]int64{0}, fmt.Sprintf("o%d", k)); err != nil {
					panic(err)
				}
			}
			for i := 0; i < 60; i++ {
				o := ids[i%len(ids)]
				err := tc.Create([]access.Decl{{Object: o, Mode: access.ReadWrite}}, rt.TaskOpts{Label: "parent"}, func(b rt.TC) {
					if _, err := b.Access(o, access.ReadWrite); err != nil {
						panic(err)
					}
					b.EndAccess(o, access.ReadWrite)
					err := b.Create([]access.Decl{{Object: o, Mode: access.ReadWrite}}, rt.TaskOpts{Label: "child"}, func(c rt.TC) {
						v, err := c.Access(o, access.ReadWrite)
						if err != nil {
							panic(err)
						}
						v.([]int64)[0]++
					})
					if err != nil {
						panic(err)
					}
				})
				if err != nil {
					panic(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		stage := map[trace.Kind]int{trace.TaskCreated: 1, trace.TaskReady: 2, trace.TaskAssigned: 3, trace.TaskStarted: 4}
		type seen struct {
			stage int
			at    int64
		}
		last := map[uint64]seen{}
		checked := 0
		for _, ev := range x.Log().Events() {
			s, ok := stage[ev.Kind]
			if !ok {
				continue
			}
			prev, known := last[ev.Task]
			if !known && s != 1 && ev.Label != "main" {
				t.Fatalf("maxLive %d: task %d's first lifecycle event is %v, want task-created", maxLive, ev.Task, ev.Kind)
			}
			if s <= prev.stage || int64(ev.At) < prev.at {
				t.Fatalf("maxLive %d: task %d: %v at %v follows stage %d at %v", maxLive, ev.Task, ev.Kind, ev.At, prev.stage, prev.at)
			}
			last[ev.Task] = seen{s, int64(ev.At)}
			if s == 4 {
				checked++
			}
		}
		if checked < 120 {
			t.Fatalf("maxLive %d: %d tasks started, want every one of the 120 and the main program", maxLive, checked)
		}
	}
}
