// Overhead budget for the always-on profiling counters (DESIGN.md §4.11):
// the engine's per-task timestamping must cost less than 5% of engine
// throughput. The test compares the BenchmarkEngineThroughput workload with
// the clock unset against the same workload driving a clock like the one
// the simulated executor installs (a field read of the discrete-event
// engine's current virtual time). The SMP executor's clock is a monotonic
// wall-clock read (~tens of ns), which exceeds this budget on the raw
// 400ns engine lifecycle but is amortized to well under 5% by the rest of
// what a real SMP task costs, several µs: the hand-off to a runner through
// the ready queue, the processor slot, and the always-on trace records.
package repro

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
)

// engineWorkload is the disjoint-g1 BenchmarkEngineThroughput set-up: an
// engine with the given clock and a running worker task, whose children
// declare its own object (a child's rights must be a subset of its
// parent's).
func engineWorkload(tb testing.TB, clock func() int64) (*core.Engine, *core.Task) {
	e := core.New(core.Hooks{Ready: func(t *core.Task) {}})
	e.SetClock(clock)
	w, err := e.Create(e.Root(), []access.Decl{{Object: 1, Mode: access.ReadWrite}}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Start(w); err != nil {
		tb.Fatal(err)
	}
	return e, w
}

// lifecycles runs n create/start/complete lifecycles of w's children: the
// BenchmarkEngineThroughput inner loop.
func lifecycles(tb testing.TB, e *core.Engine, w *core.Task, n int) {
	decls := []access.Decl{{Object: 1, Mode: access.ReadWrite}}
	for i := 0; i < n; i++ {
		t, err := e.Create(w, decls, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if err := e.Start(t); err != nil {
			tb.Fatal(err)
		}
		if err := e.Complete(t); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestAlwaysOnCounterOverhead asserts the profiling clock costs < 5% on the
// engine throughput workload. Base and instrumented runs alternate, each
// after a collection and each pair in the other order from the last, and
// the verdict is the median of the pair ratios: load that comes and goes
// during the test falls on both halves of a pair alike, and the few pairs
// it catches mid-change are outvoted.
func TestAlwaysOnCounterOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// Model the simulated executor's clock: a read of the discrete-event
	// engine's current time. The atomic load is if anything pessimistic —
	// the simulator is single-threaded and uses a plain field.
	var now atomic.Int64
	const (
		budget = 1.05
		pairs  = 1001
		ops    = 500 // under a millisecond a run
	)
	// One engine per side, warmed up, so every timed run finds its tables
	// grown and its code hot.
	baseE, baseW := engineWorkload(t, nil)
	onE, onW := engineWorkload(t, now.Load)
	lifecycles(t, baseE, baseW, ops)
	lifecycles(t, onE, onW, ops)
	run := func(e *core.Engine, w *core.Task) time.Duration {
		runtime.GC()
		start := time.Now()
		lifecycles(t, e, w, ops)
		return time.Since(start)
	}
	ratios := make([]float64, pairs)
	for i := range ratios {
		var base, on time.Duration
		if i%2 == 0 {
			base, on = run(baseE, baseW), run(onE, onW)
		} else {
			on, base = run(onE, onW), run(baseE, baseW)
		}
		ratios[i] = float64(on) / float64(base)
	}
	slices.Sort(ratios)
	ratio := ratios[pairs/2]
	t.Logf("median of %d pair ratios %.3f (quartiles %.3f, %.3f)", pairs, ratio, ratios[pairs/4], ratios[3*pairs/4])
	if ratio >= budget {
		t.Errorf("always-on counters cost %.1f%% (budget 5%%)", (ratio-1)*100)
	}
}

// TestAlwaysOnClockReads is the timing test's exact companion: it counts
// the engine's clock reads per operation. Create reads it once, for the
// task's creation, which is also its readiness stamp when nothing it
// declares conflicts; Start reads it not at all, and neither does a
// Complete that readies nothing. A task that has to wait is stamped once
// more, by the Complete that readies it. An added read fails here, whatever
// the load on the host.
func TestAlwaysOnClockReads(t *testing.T) {
	var reads int
	e, w := engineWorkload(t, func() int64 { reads++; return int64(reads) })
	decls := []access.Decl{{Object: 1, Mode: access.ReadWrite}}
	step := func(name string, want int, op func() error) {
		t.Helper()
		before := reads
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if got := reads - before; got != want {
			t.Errorf("%s read the clock %d times, want %d", name, got, want)
		}
	}
	var first, second *core.Task
	step("Create of a ready task", 1, func() (err error) { first, err = e.Create(w, decls, nil); return err })
	step("Create of a waiting task", 1, func() (err error) { second, err = e.Create(w, decls, nil); return err })
	step("Start", 0, func() error { return e.Start(first) })
	step("Complete that readies a task", 1, func() error { return e.Complete(first) })
	step("Start", 0, func() error { return e.Start(second) })
	step("Complete that readies nothing", 0, func() error { return e.Complete(second) })
	const n = 1000
	before := reads
	lifecycles(t, e, w, n)
	if got := reads - before; got != n {
		t.Errorf("%d lifecycles read the clock %d times, want %d", n, got, n)
	}
}
