package dist

import (
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/exec/exectest"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/trace"
)

// pingPong runs a chain of tasks alternating between machines 1 and 2, each
// re-writing a single element of a large object, and returns the executor
// for inspection. Re-fetches dominate: an ideal delta protocol ships a few
// words where the full protocol ships 20000 float64s.
func pingPong(t *testing.T, opts Options) (*Exec, []float64) {
	t.Helper()
	x := mustNew(t, opts)
	var final []float64
	err := x.Run(func(tc rt.TC) {
		id, err := tc.Alloc(make([]float64, 20000), "big")
		if err != nil {
			panic(err)
		}
		for step := 0; step < 8; step++ {
			step := step
			_ = tc.Create([]access.Decl{{Object: id, Mode: access.ReadWrite}},
				rt.TaskOpts{Label: "hop", Cost: 0.01, Pin: 2 + step%2},
				func(tc rt.TC) {
					v, _ := tc.Access(id, access.ReadWrite)
					v.([]float64)[step] = float64(step + 1)
				})
		}
		_ = tc.Create([]access.Decl{{Object: id, Mode: access.Read}},
			rt.TaskOpts{Label: "collect", Pin: 1},
			func(tc rt.TC) {
				v, _ := tc.Access(id, access.Read)
				final = append([]float64(nil), v.([]float64)...)
			})
	})
	if err != nil {
		t.Fatal(err)
	}
	return x, final
}

func TestDeltaTransferReducesBytes(t *testing.T) {
	for _, plat := range []machine.Platform{machine.Mica(3), machine.IPSC860(4)} {
		with, gotWith := pingPong(t, Options{Platform: plat})
		without, gotWithout := pingPong(t, Options{Platform: plat, NoDelta: true})
		// Identical program results either way.
		for i := range gotWith {
			if gotWith[i] != gotWithout[i] {
				t.Fatalf("results differ at %d: %v vs %v", i, gotWith[i], gotWithout[i])
			}
		}
		wb, wob := with.Stats().Net.Bytes, without.Stats().Net.Bytes
		if wb >= wob*3/4 {
			t.Fatalf("delta should cut bytes by >=25%%: with=%d without=%d", wb, wob)
		}
		ds := with.Stats().Delta
		if ds.DeltaTransfers == 0 || ds.SavedBytes == 0 {
			t.Fatalf("delta stats not recorded: %+v", ds)
		}
		if off := without.Stats().Delta; off.DeltaTransfers != 0 || off.CoalescedDispatches != 0 {
			t.Fatalf("NoDelta run should record no deltas: %+v", off)
		}
		// Delta makespan must not be worse: fewer bytes on the same network.
		if with.Stats().Makespan > without.Stats().Makespan {
			t.Fatalf("delta should not slow the run: %v vs %v", with.Stats().Makespan, without.Stats().Makespan)
		}
	}
}

func TestDeltaAcrossHeterogeneousFormats(t *testing.T) {
	// Workstations alternates big- and little-endian machines, so patches
	// are byte-swapped in flight like full images.
	x, got := pingPong(t, Options{Platform: machine.Workstations(4), Trace: true})
	if x.Stats().Delta.DeltaTransfers == 0 {
		t.Fatal("heterogeneous run should use delta transfers")
	}
	for i := 0; i < 8; i++ {
		if got[i] != float64(i+1) {
			t.Fatalf("element %d = %v, want %v", i, got[i], float64(i+1))
		}
	}
	for i := 8; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("element %d = %v, want 0", i, got[i])
		}
	}
	if len(x.Log().Filter(trace.ObjectPatched)) == 0 {
		t.Fatal("trace should record ObjectPatched events")
	}
	if len(x.Log().Filter(trace.Converted)) == 0 {
		t.Fatal("heterogeneous patches should still be format-converted")
	}
}

func TestDeltaRunIsDeterministic(t *testing.T) {
	first, _ := pingPong(t, Options{Platform: machine.Mica(3)})
	for i := 0; i < 2; i++ {
		again, _ := pingPong(t, Options{Platform: machine.Mica(3)})
		if again.Stats().Makespan != first.Stats().Makespan {
			t.Fatalf("nondeterministic delta makespan: %v vs %v", again.Stats().Makespan, first.Stats().Makespan)
		}
		if again.Stats().Net.Bytes != first.Stats().Net.Bytes {
			t.Fatalf("nondeterministic delta bytes: %d vs %d", again.Stats().Net.Bytes, first.Stats().Net.Bytes)
		}
	}
}

func TestDispatchCoalescing(t *testing.T) {
	// A task created on machine 0 and placed on machine 1 that reads an
	// object owned by machine 0: the dispatch control message should ride
	// on the object transfer instead of traveling alone.
	run := func(noDelta bool) (*Exec, error) {
		x := mustNew(t, Options{Platform: machine.Mica(2), NoDelta: noDelta, Trace: true})
		err := x.Run(func(tc rt.TC) {
			id, _ := tc.Alloc(make([]float64, 1000), "o")
			for i := 0; i < 4; i++ {
				_ = tc.Create([]access.Decl{{Object: id, Mode: access.ReadWrite}},
					rt.TaskOpts{Label: "t", Cost: 0.01, Pin: 2},
					func(tc rt.TC) {
						v, _ := tc.Access(id, access.ReadWrite)
						v.([]float64)[0]++
					})
			}
		})
		return x, err
	}
	with, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	without, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	if with.Stats().Delta.CoalescedDispatches == 0 {
		t.Fatal("dispatches should coalesce onto object transfers")
	}
	if len(with.Log().Filter(trace.DispatchCoalesced)) != with.Stats().Delta.CoalescedDispatches {
		t.Fatal("trace and stats disagree on coalesced dispatches")
	}
	dm, dwo := with.Stats().Net.Messages, without.Stats().Net.Messages
	if dm >= dwo {
		t.Fatalf("coalescing should reduce message count: %d vs %d", dm, dwo)
	}
	// A piggybacked dispatch shares the carrier's message envelope, so each
	// coalesced dispatch saves MsgEnvelopeBytes of framing on the wire.
	if with.Stats().Net.Bytes >= without.Stats().Net.Bytes {
		t.Fatalf("coalescing should save envelope bytes: %d vs %d", with.Stats().Net.Bytes, without.Stats().Net.Bytes)
	}
}

func TestConformanceWithNoDelta(t *testing.T) {
	spec := exectest.ProgramSpec{Objects: 4, Tasks: 40, Seed: 5, UseDeferred: true, UseHierarchy: true, UseCommute: true}
	for _, opts := range []Options{
		{Platform: machine.IPSC860(4), NoDelta: true},
		{Platform: machine.Workstations(4)}, // delta across formats
		{Platform: machine.Workstations(4), NoDelta: true},
	} {
		opts := opts
		if err := exectest.Check(func() rt.Exec { return mustNew(t, opts) }, spec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStartFailureReleasesAccounting is the regression test for the load
// accounting leak: when engine Start fails after a task was assigned, the
// early return must still unwind pendingWork/pendingTasks/liveUser, or the
// scheduler sees phantom load forever.
func TestStartFailureReleasesAccounting(t *testing.T) {
	x := mustNew(t, Options{Platform: machine.Mica(2)})
	x.testHookPreStart = func(tk *core.Task) {
		// Force the real Start to fail by moving the task to Running first.
		_ = x.eng.Start(tk)
	}
	err := x.Run(func(tc rt.TC) {
		id, _ := tc.Alloc([]float64{0}, "o")
		_ = tc.Create([]access.Decl{{Object: id, Mode: access.ReadWrite}},
			rt.TaskOpts{Label: "victim", Cost: 0.5, Pin: 1},
			func(tc rt.TC) {})
	})
	if err == nil {
		t.Fatal("forced Start failure should surface as a program error")
	}
	if x.liveUser != 0 {
		t.Fatalf("liveUser = %d after failed task, want 0", x.liveUser)
	}
	for m := range x.pendingTasks {
		if x.pendingTasks[m] != 0 {
			t.Fatalf("pendingTasks[%d] = %d, want 0", m, x.pendingTasks[m])
		}
		if x.pendingWork[m] != 0 {
			t.Fatalf("pendingWork[%d] = %v, want 0", m, x.pendingWork[m])
		}
	}
}

// TestPlacementFailureSkipsBody is the regression test for the placement
// fallback: a task requiring a capability no machine offers must not run its
// body on machine 0 anyway, but the program must still terminate.
func TestPlacementFailureSkipsBody(t *testing.T) {
	x := mustNew(t, Options{Platform: machine.DASH(2), Trace: true})
	ran := false
	err := x.Run(func(tc rt.TC) {
		id, _ := tc.Alloc([]byte{0}, "o")
		_ = tc.Create([]access.Decl{{Object: id, Mode: access.Write}},
			rt.TaskOpts{Label: "x", RequireCap: "quantum"}, func(tc rt.TC) { ran = true })
		// A later unconstrained task still runs: the program keeps going.
		_ = tc.Create([]access.Decl{{Object: id, Mode: access.ReadWrite}},
			rt.TaskOpts{Label: "y"}, func(tc rt.TC) {
				v, _ := tc.Access(id, access.ReadWrite)
				v.([]byte)[0]++
			})
	})
	if err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Fatalf("want capability error, got %v", err)
	}
	if ran {
		t.Fatal("capability-constrained body must not run on a machine lacking the capability")
	}
	if len(x.Log().Filter(trace.Violation)) == 0 {
		t.Fatal("placement failure should be recorded as a violation")
	}
	if x.liveUser != 0 {
		t.Fatalf("liveUser = %d, want 0 (skipped task must still unwind accounting)", x.liveUser)
	}
	if got := x.ObjectValue(1).([]byte)[0]; got != 1 {
		t.Fatalf("unconstrained task should still have run: object = %d", got)
	}
}

// TestPlannedEntriesClearedWhenFetchLands is the regression test for stale
// scheduler plan entries: once a machine's read copy actually lands, the
// plan note must be dropped (the directory is now the truth), or repeated
// read placements forever see a phantom planned copy.
func TestPlannedEntriesClearedWhenFetchLands(t *testing.T) {
	x := mustNew(t, Options{Platform: machine.IPSC860(4)})
	err := x.Run(func(tc rt.TC) {
		id, _ := tc.Alloc(make([]float64, 5000), "shared")
		// Waves of read-only tasks: every placement records a plan entry,
		// and every fetch must clear it again.
		for wave := 0; wave < 3; wave++ {
			for i := 0; i < 8; i++ {
				_ = tc.Create([]access.Decl{{Object: id, Mode: access.Read}},
					rt.TaskOpts{Label: "r", Cost: 0.01},
					func(tc rt.TC) {
						v, _ := tc.Access(id, access.Read)
						_ = v.([]float64)[0]
					})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(x.planned) != 0 {
		t.Fatalf("planned map should be empty after all fetches landed: %v", x.planned)
	}
}
