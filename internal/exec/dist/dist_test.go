package dist

import (
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/exec/exectest"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/trace"
)

func mustNew(t *testing.T, opts Options) *Exec {
	t.Helper()
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestConformanceAcrossPlatforms(t *testing.T) {
	platforms := map[string]machine.Platform{
		"dash":          machine.DASH(4),
		"ipsc":          machine.IPSC860(8),
		"mica":          machine.Mica(3),
		"heterogeneous": machine.Workstations(4), // mixed formats: conversion in play
	}
	for name, plat := range platforms {
		plat := plat
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				spec := exectest.ProgramSpec{
					Objects:      5,
					Tasks:        30,
					Seed:         seed,
					UseDeferred:  seed%2 == 0,
					UseHierarchy: seed%3 == 0,
					UseCommute:   seed%2 == 1,
				}
				if err := exectest.Check(func() rt.Exec {
					return mustNew(t, Options{Platform: plat})
				}, spec); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestConformanceUnderThrottleAndAblations(t *testing.T) {
	spec := exectest.ProgramSpec{Objects: 4, Tasks: 40, Seed: 3, UseDeferred: true, UseHierarchy: true, UseCommute: true}
	for _, opts := range []Options{
		{Platform: machine.IPSC860(4), MaxLiveTasks: 3},
		{Platform: machine.IPSC860(4), NoPrefetch: true},
		{Platform: machine.IPSC860(4), NoLocality: true},
		{Platform: machine.Mica(2), MaxLiveTasks: 2, NoPrefetch: true, NoLocality: true},
	} {
		opts := opts
		if err := exectest.Check(func() rt.Exec { return mustNew(t, opts) }, spec); err != nil {
			t.Fatal(err)
		}
	}
}

// runIndependent runs n independent tasks of the given cost and returns the
// makespan.
func runIndependent(t *testing.T, opts Options, n int, cost float64) time.Duration {
	t.Helper()
	x := mustNew(t, opts)
	err := x.Run(func(tc rt.TC) {
		for i := 0; i < n; i++ {
			id, err := tc.Alloc([]float64{0}, "o")
			if err != nil {
				panic(err)
			}
			if err := tc.Create(
				[]access.Decl{{Object: id, Mode: access.ReadWrite}},
				rt.TaskOpts{Label: "work", Cost: cost},
				func(tc rt.TC) {
					v, _ := tc.Access(id, access.ReadWrite)
					v.([]float64)[0] = 1
				}); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return x.Stats().Makespan
}

func TestSpeedupWithMoreMachines(t *testing.T) {
	t1 := runIndependent(t, Options{Platform: machine.DASH(1)}, 16, 0.05)
	t4 := runIndependent(t, Options{Platform: machine.DASH(4)}, 16, 0.05)
	t8 := runIndependent(t, Options{Platform: machine.DASH(8)}, 16, 0.05)
	if !(t8 < t4 && t4 < t1) {
		t.Fatalf("no speedup: 1p=%v 4p=%v 8p=%v", t1, t4, t8)
	}
	sp := t1.Seconds() / t4.Seconds()
	if sp < 2.5 {
		t.Fatalf("4-machine speedup only %.2f (1p=%v 4p=%v)", sp, t1, t4)
	}
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() time.Duration {
		return runIndependent(t, Options{Platform: machine.Mica(3)}, 12, 0.02)
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic makespan: %v vs %v", got, first)
		}
	}
}

func TestObjectMigrationAndReplication(t *testing.T) {
	x := mustNew(t, Options{Platform: machine.IPSC860(4), Trace: true})
	err := x.Run(func(tc rt.TC) {
		id, err := tc.Alloc(make([]float64, 100), "col")
		if err != nil {
			panic(err)
		}
		// Writer pinned to machine 1: the object must migrate there.
		if err := tc.Create(
			[]access.Decl{{Object: id, Mode: access.ReadWrite}},
			rt.TaskOpts{Label: "write", Cost: 0.01, Pin: 2},
			func(tc rt.TC) {
				v, _ := tc.Access(id, access.ReadWrite)
				v.([]float64)[0] = 42
			}); err != nil {
			panic(err)
		}
		// Two readers pinned elsewhere: copies.
		for _, pin := range []int{3, 4} {
			if err := tc.Create(
				[]access.Decl{{Object: id, Mode: access.Read}},
				rt.TaskOpts{Label: "read", Cost: 0.01, Pin: pin},
				func(tc rt.TC) {
					v, _ := tc.Access(id, access.Read)
					if v.([]float64)[0] != 42 {
						t.Error("reader saw stale data")
					}
				}); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	moved := x.Log().Filter(trace.ObjectMoved)
	if len(moved) != 1 || moved[0].Dst != 1 {
		t.Fatalf("moved events = %v", moved)
	}
	copied := x.Log().Filter(trace.ObjectCopied)
	if len(copied) != 2 {
		t.Fatalf("copied events = %v", copied)
	}
	// A second writer triggers invalidations of the copies.
	x2 := mustNew(t, Options{Platform: machine.IPSC860(4), Trace: true})
	err = x2.Run(func(tc rt.TC) {
		id, _ := tc.Alloc(make([]float64, 10), "col")
		for _, pin := range []int{2, 3} {
			pin := pin
			_ = tc.Create([]access.Decl{{Object: id, Mode: access.Read}},
				rt.TaskOpts{Cost: 0.01, Pin: pin}, func(tc rt.TC) {
					_, _ = tc.Access(id, access.Read)
				})
		}
		_ = tc.Create([]access.Decl{{Object: id, Mode: access.ReadWrite}},
			rt.TaskOpts{Cost: 0.01, Pin: 4}, func(tc rt.TC) {
				_, _ = tc.Access(id, access.ReadWrite)
			})
	})
	if err != nil {
		t.Fatal(err)
	}
	if inv := x2.Log().Filter(trace.ObjectInvalidated); len(inv) < 2 {
		t.Fatalf("expected >= 2 invalidations, got %v", inv)
	}
}

func TestFormatConversionBetweenHeterogeneousMachines(t *testing.T) {
	// Workstations alternate big/little endian; moving a float64 object
	// between them must convert and still read back correctly.
	x := mustNew(t, Options{Platform: machine.Workstations(2), Trace: true})
	var got float64
	err := x.Run(func(tc rt.TC) {
		id, _ := tc.Alloc([]float64{3.25}, "v")
		// machine 0 is big-endian SPARC, machine 1 little-endian DEC.
		_ = tc.Create([]access.Decl{{Object: id, Mode: access.ReadWrite}},
			rt.TaskOpts{Cost: 0.01, Pin: 2}, func(tc rt.TC) {
				v, _ := tc.Access(id, access.ReadWrite)
				v.([]float64)[0] *= 2
			})
		v, err := tc.Access(id, access.Read) // back to machine 0
		if err != nil {
			panic(err)
		}
		got = v.([]float64)[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 6.5 {
		t.Fatalf("value corrupted across formats: %v", got)
	}
	if conv := x.Log().Filter(trace.Converted); len(conv) < 2 {
		t.Fatalf("expected conversion events, got %d", len(conv))
	}
}

func TestPinningAndCapabilities(t *testing.T) {
	x := mustNew(t, Options{Platform: machine.HRV(2), Trace: true})
	err := x.Run(func(tc rt.TC) {
		id, _ := tc.Alloc(make([]byte, 64), "frame")
		// Camera work must land on the host (machine 0, CapCamera).
		_ = tc.Create([]access.Decl{{Object: id, Mode: access.ReadWrite}},
			rt.TaskOpts{Label: "capture", Cost: 0.01, RequireCap: machine.CapCamera},
			func(tc rt.TC) {
				if tc.Machine() != 0 {
					t.Errorf("capture ran on machine %d", tc.Machine())
				}
			})
		// Transform must land on an accelerator (machines 1, 2).
		_ = tc.Create([]access.Decl{{Object: id, Mode: access.ReadWrite}},
			rt.TaskOpts{Label: "transform", Cost: 0.01, RequireCap: machine.CapAccelerator},
			func(tc rt.TC) {
				if tc.Machine() == 0 {
					t.Error("transform ran on the host")
				}
			})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMissingCapabilityIsAnError(t *testing.T) {
	x := mustNew(t, Options{Platform: machine.DASH(2)})
	err := x.Run(func(tc rt.TC) {
		id, _ := tc.Alloc([]byte{0}, "o")
		_ = tc.Create([]access.Decl{{Object: id, Mode: access.Write}},
			rt.TaskOpts{Label: "x", RequireCap: "quantum"}, func(tc rt.TC) {})
	})
	if err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Fatalf("want capability error, got %v", err)
	}
}

// transferHeavy runs a chain where each task writes a big object then the
// next reads it from another machine — transfer time dominates.
func transferHeavy(t *testing.T, opts Options) (time.Duration, int) {
	t.Helper()
	x := mustNew(t, opts)
	err := x.Run(func(tc rt.TC) {
		big := make([]float64, 20000)
		ids := make([]access.ObjectID, 6)
		for i := range ids {
			ids[i], _ = tc.Alloc(append([]float64(nil), big...), "big")
		}
		// Alternate machines so every task needs remote data.
		for step := 0; step < 4; step++ {
			for i := range ids {
				i := i
				pin := 1 + (step+i)%2
				_ = tc.Create([]access.Decl{{Object: ids[i], Mode: access.ReadWrite}},
					rt.TaskOpts{Label: "hop", Cost: 0.02, Pin: pin},
					func(tc rt.TC) {
						v, _ := tc.Access(ids[i], access.ReadWrite)
						v.([]float64)[0]++
					})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return x.Stats().Makespan, x.Stats().Net.Messages
}

func TestPrefetchHidesLatency(t *testing.T) {
	plat := machine.Mica(2)
	with, _ := transferHeavy(t, Options{Platform: plat})
	without, _ := transferHeavy(t, Options{Platform: plat, NoPrefetch: true})
	if with >= without {
		t.Fatalf("prefetch should reduce makespan: with=%v without=%v", with, without)
	}
}

func TestLocalityHeuristicSavesMessages(t *testing.T) {
	// Tasks repeatedly read-write the same object; with the locality
	// heuristic the scheduler keeps them on the machine that has it.
	run := func(noLocality bool) int {
		x := mustNew(t, Options{Platform: machine.IPSC860(4), NoLocality: noLocality})
		err := x.Run(func(tc rt.TC) {
			id, _ := tc.Alloc(make([]float64, 5000), "hot")
			for i := 0; i < 12; i++ {
				_ = tc.Create([]access.Decl{{Object: id, Mode: access.ReadWrite}},
					rt.TaskOpts{Label: "touch", Cost: 0.001},
					func(tc rt.TC) {
						v, _ := tc.Access(id, access.ReadWrite)
						v.([]float64)[0]++
					})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return x.Stats().Net.Messages
	}
	withLoc := run(false)
	withoutLoc := run(true)
	if withLoc > withoutLoc {
		t.Fatalf("locality heuristic should not increase traffic: with=%d without=%d", withLoc, withoutLoc)
	}
}

func TestThrottleInlinesWithoutDeadlock(t *testing.T) {
	x := mustNew(t, Options{Platform: machine.IPSC860(2), MaxLiveTasks: 2})
	err := x.Run(func(tc rt.TC) {
		id, _ := tc.Alloc([]int64{0}, "acc")
		for i := 0; i < 30; i++ {
			_ = tc.Create([]access.Decl{{Object: id, Mode: access.ReadWrite}},
				rt.TaskOpts{Label: "inc", Cost: 0.001}, func(tc rt.TC) {
					v, _ := tc.Access(id, access.ReadWrite)
					v.([]int64)[0]++
				})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.ObjectValue(1).([]int64)[0]; got != 30 {
		t.Fatalf("counter = %d, want 30", got)
	}
}

func TestHeterogeneousSpeeds(t *testing.T) {
	// A platform with one fast and one slow machine: the balancer should
	// give the fast machine more tasks, and the fast machine should finish
	// an identical pinned task sooner.
	plat := machine.Platform{
		Name: "hetero",
		Machines: []machine.Spec{
			{Name: "slow", Speed: 1},
			{Name: "fast", Speed: 4},
		},
		Net:          machine.DASH(2).Net,
		TaskOverhead: 0,
	}
	x := mustNew(t, Options{Platform: plat, Trace: true})
	err := x.Run(func(tc rt.TC) {
		for i := 0; i < 10; i++ {
			id, _ := tc.Alloc([]float64{0}, "o")
			_ = tc.Create([]access.Decl{{Object: id, Mode: access.Write}},
				rt.TaskOpts{Label: "w", Cost: 0.1}, func(tc rt.TC) {})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	byMachine := map[int]int{}
	for _, ev := range x.Log().Filter(trace.TaskStarted) {
		byMachine[ev.Dst]++
	}
	if byMachine[1] <= byMachine[0] {
		t.Fatalf("fast machine should run more tasks: %v", byMachine)
	}
}

func TestViolationSurfaces(t *testing.T) {
	x := mustNew(t, Options{Platform: machine.DASH(2)})
	err := x.Run(func(tc rt.TC) {
		id, _ := tc.Alloc([]int64{0}, "o")
		_ = tc.Create([]access.Decl{{Object: id, Mode: access.Read}},
			rt.TaskOpts{Label: "bad"}, func(tc rt.TC) {
				_, _ = tc.Access(id, access.Write)
			})
	})
	if err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("want violation, got %v", err)
	}
}

func TestDeferredPipelineAcrossMachines(t *testing.T) {
	x := mustNew(t, Options{Platform: machine.IPSC860(4), Trace: true})
	const n = 4
	var saw [n]int64
	err := x.Run(func(tc rt.TC) {
		ids := make([]access.ObjectID, n)
		for i := range ids {
			ids[i], _ = tc.Alloc([]int64{0}, "col")
		}
		for i := 0; i < n; i++ {
			i := i
			_ = tc.Create([]access.Decl{{Object: ids[i], Mode: access.ReadWrite}},
				rt.TaskOpts{Label: "produce", Cost: 0.01}, func(tc rt.TC) {
					v, _ := tc.Access(ids[i], access.ReadWrite)
					v.([]int64)[0] = int64(i + 1)
				})
		}
		decls := make([]access.Decl, n)
		for i := range decls {
			decls[i] = access.Decl{Object: ids[i], Mode: access.DeferredRead}
		}
		_ = tc.Create(decls, rt.TaskOpts{Label: "consume", Cost: 0.001}, func(tc rt.TC) {
			for i := 0; i < n; i++ {
				if err := tc.Convert(ids[i], access.DeferredRead); err != nil {
					panic(err)
				}
				v, err := tc.Access(ids[i], access.Read)
				if err != nil {
					panic(err)
				}
				saw[i] = v.([]int64)[0]
				tc.EndAccess(ids[i], access.Read)
				if err := tc.Retract(ids[i], access.AnyRead); err != nil {
					panic(err)
				}
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range saw {
		if saw[i] != int64(i+1) {
			t.Fatalf("consumer saw %v", saw)
		}
	}
}

func TestNewRejectsInvalidPlatform(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty platform should fail")
	}
}
