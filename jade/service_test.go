package jade_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/exec/exectest"
	"repro/jade"
)

// sessionSum runs the quickstart program on one session: allocate a
// shared counter, spawn n accumulating tasks, return the final value.
func sessionSum(t *testing.T, s *jade.Session, n int) int64 {
	t.Helper()
	var ctr *jade.Array[int64]
	err := s.Run(func(tk *jade.Task) {
		ctr = jade.NewArray[int64](tk, 1, "ctr")
		ctr.Release(tk)
		for i := 0; i < n; i++ {
			i := i
			tk.WithOnlyOpts(jade.TaskOptions{Label: fmt.Sprintf("add%d", i)},
				func(sp *jade.Spec) { sp.RdWr(ctr) },
				func(tk *jade.Task) {
					v := ctr.ReadWrite(tk)
					v[0] += int64(i + 1)
				})
		}
	})
	if err != nil {
		t.Fatalf("session run: %v", err)
	}
	return jade.Final(s.Runtime, ctr)[0]
}

// TestServiceQuickstart: the README flow — one service, several tenants,
// concurrent sessions using the ordinary Runtime API, fleet report.
func TestServiceQuickstart(t *testing.T) {
	svc, err := jade.NewService(jade.ServiceConfig{
		Workers:     2,
		WorkerSlots: 2,
		Tenants: []jade.TenantProfile{
			{Name: "analytics", SlotsPerWorker: 1},
			{Name: "batch", SlotsPerWorker: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		ten := "analytics"
		if i%2 == 1 {
			ten = "batch"
		}
		s, err := svc.OpenSession(ten)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *jade.Session, n int) {
			defer wg.Done()
			defer s.Close()
			if got, want := sessionSum(t, s, n), int64(n*(n+1)/2); got != want {
				t.Errorf("session %d sum = %d, want %d", s.ID(), got, want)
			}
		}(s, 4+i)
	}
	wg.Wait()

	rep := svc.Report()
	if rep.SessionsClosed != 4 || rep.Active != 0 {
		t.Fatalf("closed/active = %d/%d, want 4/0", rep.SessionsClosed, rep.Active)
	}
	if a, b := rep.Tenants["analytics"], rep.Tenants["batch"]; a.Sessions != 2 || b.Sessions != 2 {
		t.Fatalf("tenant sessions = %d/%d, want 2/2", a.Sessions, b.Sessions)
	}
	for _, w := range rep.Workers {
		if w.Ledger.Violation != "" {
			t.Fatalf("worker %s ledger violation: %s", w.Name, w.Ledger.Violation)
		}
	}
}

// TestServiceSessionReport: a session's own Report works like any live
// runtime's, including the per-worker slot view.
func TestServiceSessionReport(t *testing.T) {
	svc, err := jade.NewService(jade.ServiceConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s, err := svc.OpenSession("solo")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := sessionSum(t, s, 5); got != 15 {
		t.Fatalf("sum = %d, want 15", got)
	}
	rep := s.Report()
	if rep.Tasks.Run != 6 { // 5 tasks + main
		t.Fatalf("Tasks.Run = %d, want 6", rep.Tasks.Run)
	}
	if len(rep.Workers) != 2 {
		t.Fatalf("Report.Workers has %d entries, want 2", len(rep.Workers))
	}
	for _, w := range rep.Workers {
		if w.Held != 0 || w.Free != w.Slots {
			t.Fatalf("worker %d after run: held %d free %d slots %d", w.Machine, w.Held, w.Free, w.Slots)
		}
	}
}

// TestServiceSecondRunAfterClose: a closed session refuses further runs.
func TestServiceSecondRunAfterClose(t *testing.T) {
	svc, err := jade.NewService(jade.ServiceConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s, err := svc.OpenSession("a")
	if err != nil {
		t.Fatal(err)
	}
	sessionSum(t, s, 3)
	s.Close()
	if err := s.Run(func(*jade.Task) {}); err == nil {
		t.Fatal("Run on a closed session succeeded")
	}
}

// TestServiceSessionTraceLog: ServiceConfig.Trace reaches every session,
// whose TraceLog then holds its whole run; without it TraceLog is nil.
func TestServiceSessionTraceLog(t *testing.T) {
	for _, traced := range []bool{false, true} {
		svc, err := jade.NewService(jade.ServiceConfig{Workers: 2, Trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		s, err := svc.OpenSession("a")
		if err != nil {
			t.Fatal(err)
		}
		sessionSum(t, s, 4)
		l := s.TraceLog()
		if !traced {
			if l != nil {
				t.Errorf("untraced session: TraceLog = %p, want nil", l)
			}
		} else if l == nil {
			t.Error("traced session: TraceLog is nil")
		} else {
			labels := map[string]bool{}
			for _, ev := range l.Events() {
				labels[ev.Label] = true
			}
			for i := 0; i < 4; i++ {
				if lbl := fmt.Sprintf("add%d", i); !labels[lbl] {
					t.Errorf("traced session's log has no event for task %s", lbl)
				}
			}
		}
		s.Close()
		svc.Close()
	}
}

// TestServiceLeavesNoGoroutines: a closed service gives back everything it
// started, the in-process daemons included, on both transports.
func TestServiceLeavesNoGoroutines(t *testing.T) {
	for _, tr := range []string{"inproc", "tcp"} {
		before := runtime.NumGoroutine()
		for cycle := 0; cycle < 3; cycle++ {
			svc, err := jade.NewService(jade.ServiceConfig{Workers: 2, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			s, err := svc.OpenSession("t")
			if err != nil {
				t.Fatal(err)
			}
			if got := sessionSum(t, s, 4); got != 10 {
				t.Fatalf("%s: sum = %d, want 10", tr, got)
			}
			s.Close()
			svc.Close()
		}
		if err := exectest.AwaitGoroutines(before, 5*time.Second); err != nil {
			t.Fatalf("%s, three services: %v", tr, err)
		}
	}
}
