package jade_test

import (
	"strings"
	"testing"

	"repro/jade"
)

func TestRunTwiceIsAnError(t *testing.T) {
	for name, mk := range runtimes(t) {
		t.Run(name, func(t *testing.T) {
			r := mk()
			if err := r.Run(func(tk *jade.Task) {}); err != nil {
				t.Fatal(err)
			}
			err := r.Run(func(tk *jade.Task) {})
			if err == nil || !strings.Contains(err.Error(), "twice") {
				t.Fatalf("second Run should fail, got %v", err)
			}
		})
	}
}

func TestNewSimulatedRejectsBadPlatform(t *testing.T) {
	if _, err := jade.NewSimulated(jade.SimConfig{}); err == nil {
		t.Fatal("empty platform should be rejected")
	}
	bad := jade.DASH(2)
	bad.Machines[0].Speed = -1
	if _, err := jade.NewSimulated(jade.SimConfig{Platform: bad}); err == nil {
		t.Fatal("negative speed should be rejected")
	}
}

func TestFinalOfUntouchedArray(t *testing.T) {
	r := jade.NewSMP(jade.SMPConfig{Procs: 1})
	var a *jade.Array[int32]
	if err := r.Run(func(tk *jade.Task) {
		a = jade.NewArrayFrom(tk, []int32{1, 2, 3}, "a")
	}); err != nil {
		t.Fatal(err)
	}
	got := jade.Final(r, a)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("Final = %v", got)
	}
}

func TestWithOnlyPanicsOnBadPin(t *testing.T) {
	r, err := jade.NewSimulated(jade.SimConfig{Platform: jade.DASH(2)})
	if err != nil {
		t.Fatal(err)
	}
	err = r.Run(func(tk *jade.Task) {
		a := jade.NewArray[int64](tk, 1, "a")
		tk.WithOnlyOpts(jade.TaskOptions{Machine: jade.On(99)},
			func(s *jade.Spec) { s.Rd(a) }, func(tk *jade.Task) {})
	})
	if err == nil || !strings.Contains(err.Error(), "invalid machine") {
		t.Fatalf("pin to nonexistent machine should fail the run, got %v", err)
	}
}

// TestSummaryIncludesEngineStats verifies the dependency-engine counters —
// including the sharded engine's contention counters — surface through
// Runtime.Report().Engine on both substrates.
func TestSummaryIncludesEngineStats(t *testing.T) {
	for name, mk := range runtimes(t) {
		t.Run(name, func(t *testing.T) {
			r := mk()
			var a *jade.Array[int64]
			if err := r.Run(func(tk *jade.Task) {
				a = jade.NewArray[int64](tk, 4, "a")
				for i := 0; i < 5; i++ {
					tk.WithOnly(func(s *jade.Spec) { s.RdWr(a) }, func(tk *jade.Task) {
						v := a.ReadWrite(tk)
						v[0]++
					})
				}
			}); err != nil {
				t.Fatal(err)
			}
			es := r.Report().Engine
			if es.TasksCreated != 5 || es.TasksCompleted != 6 { // +1: main program
				t.Fatalf("engine stats %+v: want 5 created, 6 completed", es)
			}
			if es.LockAcquisitions == 0 {
				t.Fatalf("engine stats %+v: queue-lock acquisitions not counted", es)
			}
		})
	}
}
