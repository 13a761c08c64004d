package tenant_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/exec/live/tenant"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/trace"
)

// window is what a session's Report and trace export read: its events,
// its drop count, the per-label latency and a validated Chrome export.
type window struct {
	events  []trace.Event
	dropped uint64
	labels  []string
	chrome  string
}

func windowOf(t *testing.T, s *tenant.Session) window {
	t.Helper()
	var w window
	w.events, w.dropped = s.X.Log().Snapshot()
	for _, ll := range obs.LatencyByLabel(w.events) {
		w.labels = append(w.labels, ll.Label)
	}
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, obs.Input{Events: w.events, Dropped: w.dropped}, obs.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.Validate(buf.Bytes()); err != nil {
		t.Fatalf("session %d export: %v", s.ID(), err)
	}
	w.chrome = buf.String()
	return w
}

// TestRecycledRingIsolated: B reuses the ring A gave back at Close, and
// nothing that still holds A sees B's run: A's window holds no task,
// object or label of B's, counts the events A handed back as dropped,
// and still exports a valid trace. B's first window is B's alone.
func TestRecycledRingIsolated(t *testing.T) {
	svc, err := tenant.NewService(tenant.Options{Workers: 2, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	a, err := svc.OpenSession("a")
	if err != nil {
		t.Fatal(err)
	}
	runSum(t, a, 2, 3) // tasks 1..4, labels add0..add2
	held := a.X.Log().Len()
	a.Close()
	if n := svc.FreeRings(); n != 1 {
		t.Fatalf("%d free rings after A closed, want 1", n)
	}

	b, err := svc.OpenSession("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if n := svc.FreeRings(); n != 0 {
		t.Fatalf("%d free rings with B open, want 0 (B took A's)", n)
	}
	runSum(t, b, 2, 12) // tasks 1..13, labels add0..add11
	inB := func(obj uint64) bool {
		return access.ObjectID(obj) >= b.ObjectBase() && access.ObjectID(obj) < b.ObjectBase()+1<<32
	}

	wa := windowOf(t, a)
	if uint64(held) != wa.dropped {
		t.Errorf("A's window counts %d dropped events, want the %d it handed back", wa.dropped, held)
	}
	for _, ev := range wa.events {
		if ev.Task > 4 || inB(ev.Object) {
			t.Errorf("A's window holds B's event %v", ev)
		}
	}
	for i := 3; i < 12; i++ {
		lbl := fmt.Sprintf("add%d", i)
		if slices.Contains(wa.labels, lbl) || strings.Contains(wa.chrome, `"`+lbl+`"`) {
			t.Errorf("A's window shows B's label %s", lbl)
		}
	}

	wb := windowOf(t, b)
	if wb.dropped != 0 {
		t.Errorf("B's first window reports %d dropped events, want 0", wb.dropped)
	}
	if len(wb.labels) != 12 {
		t.Errorf("B's latency labels = %v, want add0..add11", wb.labels)
	}
	for _, ev := range wb.events {
		if ev.Object != 0 && !inB(ev.Object) {
			t.Errorf("B's window holds a foreign event %v", ev)
		}
	}
}

// TestRingsBoundedByPeak: over 200 sessions through a gate of two, the
// service makes no more rings than sessions it ever had open at once, and
// a traced session's unbounded log never joins the free list.
func TestRingsBoundedByPeak(t *testing.T) {
	svc, err := tenant.NewService(tenant.Options{Workers: 2, MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const clients, each = 4, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s, err := svc.OpenSession(fmt.Sprintf("t%d", c))
				if err != nil {
					t.Error(err)
					return
				}
				err = s.Run(func(tc rt.TC) {
					if err := tc.Create(nil, rt.TaskOpts{Label: "noop"}, func(rt.TC) {}); err != nil {
						panic(err)
					}
				})
				s.Close()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	rep := svc.Report()
	made := svc.FreeRings() // every session is closed, so every ring is free
	if rep.SessionsClosed != clients*each {
		t.Fatalf("%d sessions closed, want %d", rep.SessionsClosed, clients*each)
	}
	if made < 1 || made > rep.PeakActive || made > 2 {
		t.Fatalf("%d rings made for %d sessions, peak %d active: want 1..peak", made, rep.SessionsClosed, rep.PeakActive)
	}

	s, err := svc.OpenSessionCfg(tenant.SessionConfig{Tenant: "traced", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := svc.FreeRings(); n != made {
		t.Fatalf("a traced session took a ring: %d free, want %d", n, made)
	}
	runSum(t, s, 1, 2)
	s.Close()
	if n := svc.FreeRings(); n != made {
		t.Fatalf("a traced session's log joined the free list: %d free, want %d", n, made)
	}
	if s.X.Log().Len() == 0 {
		t.Fatal("a traced session lost its log at Close")
	}
}

// TestFinishedSessionsBounded: a daemon keeps the cache snapshots of its
// last 64 finished sessions (live's closedKept), not of every session it
// ever served, so a long-lived service's heap stays flat. A session
// whose worker is still winding down at the check counts as live; there
// are at most two, the gate's width.
func TestFinishedSessionsBounded(t *testing.T) {
	svc, err := tenant.NewService(tenant.Options{Workers: 2, MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const kept, winding, sessions = 64, 2, 200
	for i := 0; i < sessions; i++ {
		s, err := svc.OpenSession("t")
		if err != nil {
			t.Fatal(err)
		}
		runSum(t, s, 1, 2)
		s.Close()
	}
	for di, ms := range svc.Servers() {
		if n := len(ms.SessionObjects()); n > kept+winding {
			t.Errorf("daemon %d keeps %d session snapshots after %d sessions, want ≤ %d", di+1, n, sessions, kept+winding)
		}
	}
}
