package jade_test

import (
	"testing"
	"time"

	"repro/jade"
)

// runSum executes a small fan-out/fan-in program on r: four tasks each add
// into their cell, then main reads the total.
func runSum(t *testing.T, r *jade.Runtime) {
	t.Helper()
	var total int64
	err := r.Run(func(tk *jade.Task) {
		cells := jade.NewArray[int64](tk, 4, "cells")
		cells.Release(tk)
		for i := 0; i < 4; i++ {
			i := i
			tk.WithOnlyOpts(jade.TaskOptions{Label: "add", Cost: 0.001},
				func(s *jade.Spec) { s.RdWr(cells) },
				func(tk *jade.Task) { cells.ReadWrite(tk)[i] = int64(i) + 1 })
		}
		tk.WithCont(func(c *jade.Cont) {})
		v := cells.Read(tk)
		for _, x := range v {
			total += x
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 1+2+3+4 {
		t.Fatalf("sum = %d", total)
	}
}

// TestReportPopulatedWithoutTracing is the regression test for the
// Summary-returns-zero bug: with tracing off, Report must still populate
// makespan, task counts and busy time from executor state.
func TestReportPopulatedWithoutTracing(t *testing.T) {
	sim, err := jade.NewSimulated(jade.SimConfig{Platform: jade.IPSC860(2)})
	if err != nil {
		t.Fatal(err)
	}
	smp := jade.NewSMP(jade.SMPConfig{Procs: 2})
	for name, r := range map[string]*jade.Runtime{"simulated": sim, "smp": smp} {
		runSum(t, r)
		rep := r.Report()
		if rep.Makespan <= 0 {
			t.Errorf("%s: Report().Makespan = %v, want > 0 with tracing off", name, rep.Makespan)
		}
		if rep.Tasks.Created != 4 || rep.Tasks.Completed != 5 { // completions include main
			t.Errorf("%s: Tasks = %+v, want 4 created, 5 completed", name, rep.Tasks)
		}
		if rep.Tasks.Run != 5 { // 4 tasks + main
			t.Errorf("%s: Tasks.Run = %d, want 5", name, rep.Tasks.Run)
		}
		var busy time.Duration
		for _, b := range rep.Tasks.Busy {
			busy += b
		}
		if busy <= 0 {
			t.Errorf("%s: total busy = %v, want > 0 with tracing off", name, busy)
		}
		if rep.Engine.TasksCreated != 4 {
			t.Errorf("%s: Engine.TasksCreated = %d", name, rep.Engine.TasksCreated)
		}
		// The always-on ring makes the profile available untraced too.
		if rep.Profile == nil || rep.Profile.Tasks == 0 {
			t.Errorf("%s: Profile missing on untraced run: %+v", name, rep.Profile)
		}
		if rep.Profile != nil && rep.Profile.TInf > rep.Makespan {
			t.Errorf("%s: TInf %v exceeds makespan %v", name, rep.Profile.TInf, rep.Makespan)
		}
	}
	if sim.Report().Net.Messages == 0 {
		t.Error("simulated: Net.Messages = 0, want > 0")
	}
}

// TestReportSections pins which Report sections each substrate fills from
// its executor's Stats: Report is the single metrics entry point, and the
// same program must read the same way on all three.
func TestReportSections(t *testing.T) {
	newSim := func(t *testing.T) *jade.Runtime {
		r, err := jade.NewSimulated(jade.SimConfig{Platform: jade.Mica(4), Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, tc := range []struct {
		name    string
		new     func(t *testing.T) *jade.Runtime
		net     bool // Net and Delta filled
		workers int  // len(Workers)
	}{
		{name: "smp", new: func(*testing.T) *jade.Runtime { return jade.NewSMP(jade.SMPConfig{Procs: 2}) }},
		{name: "sim", new: newSim, net: true},
		{name: "live", new: func(t *testing.T) *jade.Runtime {
			r, err := jade.NewLive(jade.LiveConfig{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, net: true, workers: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.new(t)
			runSum(t, r)
			rep := r.Report()
			if got := rep.Net.Messages != 0 && rep.Net.Bytes != 0; got != tc.net {
				t.Errorf("Report().Net = %+v, want traffic: %v", rep.Net, tc.net)
			}
			if got := rep.Delta != (jade.DeltaStats{}); got != tc.net {
				t.Errorf("Report().Delta = %+v, want transfers: %v", rep.Delta, tc.net)
			}
			if len(rep.Workers) != tc.workers {
				t.Errorf("Report().Workers = %+v, want %d entries", rep.Workers, tc.workers)
			}
			if rep.Fault != (jade.FaultStats{}) {
				t.Errorf("Report().Fault = %+v, want zero without failures", rep.Fault)
			}
			if rep.ConvertedWords != 0 {
				t.Errorf("Report().ConvertedWords = %d on a homogeneous fleet", rep.ConvertedWords)
			}
			if rep.Engine.TasksCreated != 4 {
				t.Errorf("Report().Engine = %+v, want 4 tasks created", rep.Engine)
			}
			if rep.Tasks.Run != 5 { // 4 tasks + main
				t.Errorf("Report().Tasks.Run = %d, want 5", rep.Tasks.Run)
			}
			if rep.Makespan <= 0 || rep.Makespan != r.Makespan() {
				t.Errorf("Report().Makespan = %v, Makespan() = %v", rep.Makespan, r.Makespan())
			}
		})
	}
	// Simulated makespan is virtual time: it repeats exactly, which wall
	// time never does.
	a, b := newSim(t), newSim(t)
	runSum(t, a)
	runSum(t, b)
	if a.Makespan() != b.Makespan() {
		t.Errorf("simulated makespans differ: %v vs %v", a.Makespan(), b.Makespan())
	}
}

func TestParseFeature(t *testing.T) {
	for _, s := range []string{"prefetch", "locality", "delta"} {
		f, err := jade.ParseFeature(s)
		if err != nil || string(f) != s {
			t.Errorf("ParseFeature(%q) = %v, %v", s, f, err)
		}
	}
	if _, err := jade.ParseFeature("turbo"); err == nil {
		t.Error("ParseFeature(turbo) should fail")
	}
}

// TestDisableUnknownFeature: SimConfig.Disable rejects unknown names.
func TestDisableUnknownFeature(t *testing.T) {
	_, err := jade.NewSimulated(jade.SimConfig{
		Platform: jade.IPSC860(2),
		Disable:  []jade.Feature{"turbo"},
	})
	if err == nil {
		t.Fatal("expected error for unknown feature")
	}
}

// TestDisableFeatures: each known feature is accepted and the run still
// produces correct results.
func TestDisableFeatures(t *testing.T) {
	r, err := jade.NewSimulated(jade.SimConfig{
		Platform: jade.IPSC860(2),
		Disable:  []jade.Feature{jade.FeatPrefetch, jade.FeatLocality, jade.FeatDelta},
	})
	if err != nil {
		t.Fatal(err)
	}
	runSum(t, r)
}
