package dist

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/rt"
)

// TestFaultFailLatchRace hammers fail from many goroutines: the first error
// must win and the latch must be clean under the race detector (user task
// bodies may legally spawn goroutines that hit fail concurrently).
func TestFaultFailLatchRace(t *testing.T) {
	x := mustNew(t, Options{Platform: machine.Mica(2)})
	errs := make([]error, 16)
	for i := range errs {
		errs[i] = fmt.Errorf("err-%d", i)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x.fail(errs[i])
		}(i)
	}
	wg.Wait()
	got := x.firstError()
	if got == nil {
		t.Fatal("no error latched")
	}
	for i := 0; i < 100; i++ {
		if again := x.firstError(); again != got {
			t.Fatalf("latched error changed: %v -> %v", got, again)
		}
	}
}

// faultProg is a two-wave pipeline over per-task arrays: wave one fills each
// array, wave two reads a neighbor and accumulates. It exercises transfers,
// ownership migration and cross-machine dependencies, and its result is
// independent of scheduling.
func faultProg(nTasks, size int) (func(tc rt.TC, ids []access.ObjectID), func(tc rt.TC) []access.ObjectID) {
	alloc := func(tc rt.TC) []access.ObjectID {
		ids := make([]access.ObjectID, nTasks)
		for i := range ids {
			id, err := tc.Alloc(make([]float64, size), fmt.Sprintf("v%d", i))
			if err != nil {
				panic(err)
			}
			ids[i] = id
			tc.ClearAccess(id)
		}
		return ids
	}
	run := func(tc rt.TC, ids []access.ObjectID) {
		for i := range ids {
			i := i
			obj := ids[i]
			err := tc.Create([]access.Decl{{Object: obj, Mode: access.ReadWrite}},
				rt.TaskOpts{Label: fmt.Sprintf("fill%d", i), Cost: 0.02},
				func(c rt.TC) {
					v, err := c.Access(obj, access.ReadWrite)
					if err != nil {
						panic(err)
					}
					s := v.([]float64)
					for j := range s {
						s[j] = float64(i*1000 + j)
					}
				})
			if err != nil {
				panic(err)
			}
		}
		for i := range ids {
			i := i
			obj := ids[i]
			prev := ids[(i+len(ids)-1)%len(ids)]
			err := tc.Create([]access.Decl{
				{Object: obj, Mode: access.ReadWrite},
				{Object: prev, Mode: access.Read},
			}, rt.TaskOpts{Label: fmt.Sprintf("mix%d", i), Cost: 0.02},
				func(c rt.TC) {
					pv, err := c.Access(prev, access.Read)
					if err != nil {
						panic(err)
					}
					v, err := c.Access(obj, access.ReadWrite)
					if err != nil {
						panic(err)
					}
					p, s := pv.([]float64), v.([]float64)
					for j := range s {
						s[j] = s[j]*2 + p[j]
					}
				})
			if err != nil {
				panic(err)
			}
		}
	}
	return run, alloc
}

func runFaultProg(t *testing.T, opts Options) ([][]float64, fault.Stats, time.Duration) {
	t.Helper()
	x := mustNew(t, opts)
	run, alloc := faultProg(12, 16)
	var ids []access.ObjectID
	if err := x.Run(func(tc rt.TC) {
		ids = alloc(tc)
		run(tc, ids)
	}); err != nil {
		t.Fatalf("run with %+v failed: %v", opts.Fault, err)
	}
	out := make([][]float64, len(ids))
	for i, id := range ids {
		out[i] = append([]float64(nil), x.ObjectValue(id).([]float64)...)
	}
	return out, x.Stats().Fault, x.Stats().Makespan
}

// TestFaultCrashRecovery crashes machines mid-run and checks the program
// still produces exactly the fault-free result, with the recovery visible in
// the counters.
func TestFaultCrashRecovery(t *testing.T) {
	want, _, base := runFaultProg(t, Options{Platform: machine.Mica(4)})
	for _, plan := range []*fault.Plan{
		{Crashes: []fault.Crash{{Machine: 2, At: 10 * time.Millisecond}}},
		{Crashes: []fault.Crash{{Machine: 1, At: 8 * time.Millisecond}, {Machine: 3, At: 40 * time.Millisecond}}},
		{Crashes: []fault.Crash{{Machine: 2, At: 15 * time.Millisecond}}, LossRate: 0.05, DupRate: 0.05, Seed: 7},
	} {
		got, fs, span := runFaultProg(t, Options{Platform: machine.Mica(4), Fault: plan})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("plan %+v: results differ from fault-free run", plan)
		}
		if fs.CrashesInjected != len(plan.Crashes) {
			t.Fatalf("plan %+v: CrashesInjected = %d, want %d", plan, fs.CrashesInjected, len(plan.Crashes))
		}
		if fs.CrashesDetected < len(plan.Crashes) {
			t.Fatalf("plan %+v: CrashesDetected = %d < crashes %d", plan, fs.CrashesDetected, len(plan.Crashes))
		}
		if fs.HeartbeatsSent == 0 {
			t.Fatalf("plan %+v: no heartbeats sent", plan)
		}
		if fs.RecoveryTime <= 0 {
			t.Fatalf("plan %+v: RecoveryTime = %v", plan, fs.RecoveryTime)
		}
		if span < base {
			t.Fatalf("plan %+v: makespan %v shorter than fault-free %v", plan, span, base)
		}
	}
}

// TestFaultDeterministicReplay runs the same faulty plan twice: results,
// makespan and every counter must be bit-identical.
func TestFaultDeterministicReplay(t *testing.T) {
	plan := &fault.Plan{
		Crashes:  []fault.Crash{{Machine: 1, At: 12 * time.Millisecond}, {Machine: 3, At: 30 * time.Millisecond}},
		LossRate: 0.08, DupRate: 0.04, Seed: 42,
	}
	opts := Options{Platform: machine.Mica(4), Fault: plan}
	out1, fs1, span1 := runFaultProg(t, opts)
	out2, fs2, span2 := runFaultProg(t, opts)
	if !reflect.DeepEqual(out1, out2) {
		t.Fatal("two runs of the same fault plan produced different results")
	}
	if span1 != span2 {
		t.Fatalf("makespans differ: %v vs %v", span1, span2)
	}
	if fs1 != fs2 {
		t.Fatalf("fault stats differ:\n%+v\n%+v", fs1, fs2)
	}
}

// TestFaultPartitionFencing partitions a machine away from the control
// machine long enough for the detector to fence it; the run must still
// produce the fault-free result.
func TestFaultPartitionFencing(t *testing.T) {
	want, _, _ := runFaultProg(t, Options{Platform: machine.Mica(4)})
	plan := &fault.Plan{Partitions: []fault.Partition{
		{A: 0, B: 2, From: 5 * time.Millisecond, To: 400 * time.Millisecond},
	}}
	got, fs, _ := runFaultProg(t, Options{Platform: machine.Mica(4), Fault: plan})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("partitioned run differs from fault-free run")
	}
	if fs.FalseSuspicions != 1 {
		t.Fatalf("FalseSuspicions = %d, want 1 (machine 2 fenced)", fs.FalseSuspicions)
	}
}

// TestFaultEventLimitError verifies the runaway guard: a fault-plan run that
// trips the simulator's event limit fails with a descriptive error instead
// of spinning forever.
func TestFaultEventLimitError(t *testing.T) {
	x := mustNew(t, Options{
		Platform:   machine.Mica(4),
		EventLimit: 200,
		Fault:      &fault.Plan{Crashes: []fault.Crash{{Machine: 2, At: 10 * time.Millisecond}}},
	})
	run, alloc := faultProg(12, 16)
	err := x.Run(func(tc rt.TC) { run(tc, alloc(tc)) })
	if err == nil {
		t.Fatal("expected an event-limit error")
	}
	for _, frag := range []string{"event limit", "runaway"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
}

// TestFaultPinnedToDeadMachine checks that placing a task pinned to a
// crashed machine fails the run descriptively rather than hanging.
func TestFaultPinnedToDeadMachine(t *testing.T) {
	x := mustNew(t, Options{
		Platform: machine.Mica(4),
		Fault:    &fault.Plan{Crashes: []fault.Crash{{Machine: 2, At: time.Millisecond}}},
	})
	err := x.Run(func(tc rt.TC) {
		id, aerr := tc.Alloc(make([]float64, 4), "v")
		if aerr != nil {
			panic(aerr)
		}
		tc.ClearAccess(id)
		// Give the crash time to fire before the pinned task is created.
		tc.Charge(0.1)
		if cerr := tc.Create([]access.Decl{{Object: id, Mode: access.ReadWrite}},
			rt.TaskOpts{Label: "pinned", Pin: 3, Cost: 0.01},
			func(c rt.TC) {
				if _, aerr := c.Access(id, access.ReadWrite); aerr != nil {
					panic(aerr)
				}
			}); cerr != nil {
			panic(cerr)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "crashed") {
		t.Fatalf("err = %v, want pinned-to-crashed-machine error", err)
	}
}
