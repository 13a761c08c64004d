package tenant_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/exec/live/tenant"
	"repro/internal/rt"
)

// runSum drives one small Jade program on a session: alloc nObjs
// counters, spawn nTasks tasks that each add (task index + 1) to every
// counter, and return the final values. The serial oracle is
// nTasks*(nTasks+1)/2 per counter.
func runSum(t *testing.T, s *tenant.Session, nObjs, nTasks int) []int64 {
	t.Helper()
	ids := make([]access.ObjectID, nObjs)
	err := s.Run(func(tc rt.TC) {
		for i := range ids {
			id, err := tc.Alloc([]int64{0}, fmt.Sprintf("ctr%d", i))
			if err != nil {
				panic(err)
			}
			ids[i] = id
		}
		for i := 0; i < nTasks; i++ {
			i := i
			decls := make([]access.Decl, len(ids))
			for k, id := range ids {
				decls[k] = access.Decl{Object: id, Mode: access.ReadWrite}
			}
			if err := tc.Create(decls, rt.TaskOpts{Label: fmt.Sprintf("add%d", i)}, func(ctc rt.TC) {
				for _, id := range ids {
					v, err := ctc.Access(id, access.ReadWrite)
					if err != nil {
						panic(err)
					}
					v.([]int64)[0] += int64(i + 1)
				}
			}); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatalf("session %d run: %v", s.ID(), err)
	}
	out := make([]int64, nObjs)
	for i, id := range ids {
		out[i] = s.X.ObjectValue(id).([]int64)[0]
	}
	return out
}

// TestServiceSessionsConcurrent: several sessions across two tenants run
// concurrently over one shared fleet, each matching its serial oracle,
// each confined to its own object-id range.
func TestServiceSessionsConcurrent(t *testing.T) {
	svc, err := tenant.NewService(tenant.Options{
		Workers:     2,
		WorkerSlots: 2,
		Profiles: []tenant.Profile{
			{Name: "alpha", SlotsPerWorker: 1},
			{Name: "beta", SlotsPerWorker: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const nSessions = 6
	var wg sync.WaitGroup
	for i := 0; i < nSessions; i++ {
		ten := "alpha"
		if i%2 == 1 {
			ten = "beta"
		}
		s, err := svc.OpenSession(ten)
		if err != nil {
			t.Fatal(err)
		}
		if s.Tenant() != ten {
			t.Fatalf("session tenant = %q, want %q", s.Tenant(), ten)
		}
		if want := access.ObjectID(s.ID()) << 32; s.ObjectBase() != want {
			t.Fatalf("session %d base = %#x, want %#x", s.ID(), s.ObjectBase(), want)
		}
		wg.Add(1)
		go func(s *tenant.Session, n int) {
			defer wg.Done()
			defer s.Close()
			got := runSum(t, s, 2, n)
			want := int64(n * (n + 1) / 2)
			for k, v := range got {
				if v != want {
					t.Errorf("session %d ctr%d = %d, want %d", s.ID(), k, v, want)
				}
			}
			for _, id := range s.X.ObjectIDs() {
				if id < s.ObjectBase() || id >= s.ObjectBase()+(1<<32) {
					t.Errorf("session %d tracks foreign object %#x", s.ID(), id)
				}
			}
		}(s, 3+i)
	}
	wg.Wait()

	rep := svc.Report()
	if rep.SessionsAdmitted != nSessions || rep.SessionsClosed != nSessions || rep.Active != 0 {
		t.Fatalf("report admitted/closed/active = %d/%d/%d, want %d/%d/0",
			rep.SessionsAdmitted, rep.SessionsClosed, rep.Active, nSessions, nSessions)
	}
	wantTasks := nSessions // each session's main program counts as one task
	for i := 0; i < nSessions; i++ {
		wantTasks += 3 + i
	}
	if rep.TasksRun != wantTasks {
		t.Fatalf("report TasksRun = %d, want %d", rep.TasksRun, wantTasks)
	}
	if a, b := rep.Tenants["alpha"], rep.Tenants["beta"]; a.Sessions != 3 || b.Sessions != 3 {
		t.Fatalf("per-tenant sessions = %d/%d, want 3/3", a.Sessions, b.Sessions)
	}
	if len(rep.Workers) != 2 {
		t.Fatalf("report has %d workers, want 2", len(rep.Workers))
	}
	for _, w := range rep.Workers {
		if w.Ledger.Violation != "" {
			t.Fatalf("worker %s slot ledger violation: %s", w.Name, w.Ledger.Violation)
		}
		if w.Ledger.Held != 0 {
			t.Fatalf("worker %s still holds %d slots after all sessions closed", w.Name, w.Ledger.Held)
		}
		if u, ok := w.Ledger.PerTenant["alpha"]; ok && u.Peak > 1 {
			t.Fatalf("worker %s: tenant alpha peak %d exceeds cap 1", w.Name, u.Peak)
		}
	}
}

// TestServiceUnnamedTenantKeepsItsCap: a session of the tenant named ""
// gets the default per-worker quota like any other tenant; the daemon's
// plain-run slot bucket is no tenant's, so it cannot stand in for it.
func TestServiceUnnamedTenantKeepsItsCap(t *testing.T) {
	svc, err := tenant.NewService(tenant.Options{Workers: 1, WorkerSlots: 2, DefaultSlotsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s, err := svc.OpenSession("")
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	for k, v := range runSum(t, s, 2, n) {
		if v != n*(n+1)/2 {
			t.Fatalf("ctr%d = %d, want %d", k, v, n*(n+1)/2)
		}
	}
	s.Close()
	for _, w := range svc.Report().Workers {
		u, ok := w.Ledger.PerTenant[""]
		if !ok || u.Cap != 1 || u.Peak > 1 || w.Ledger.Violation != "" {
			t.Fatalf("worker %s: tenant \"\" slot use %+v (listed %v), violation %q; want cap 1, peak ≤ 1",
				w.Name, u, ok, w.Ledger.Violation)
		}
	}
}

// TestServiceAdmissionBlocks: at MaxSessions the next OpenSession call
// queues until a running session closes; PeakActive never exceeds the
// cap.
func TestServiceAdmissionBlocks(t *testing.T) {
	svc, err := tenant.NewService(tenant.Options{Workers: 1, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	first, err := svc.OpenSession("a")
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan *tenant.Session)
	go func() {
		s, err := svc.OpenSession("a")
		if err != nil {
			t.Error(err)
			close(admitted)
			return
		}
		admitted <- s
	}()
	select {
	case <-admitted:
		t.Fatal("second session admitted past MaxSessions=1")
	case <-time.After(50 * time.Millisecond):
	}
	first.Close()
	select {
	case s := <-admitted:
		if s != nil {
			s.Close()
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued session never admitted after close")
	}
	rep := svc.Report()
	if rep.PeakActive > 1 {
		t.Fatalf("PeakActive = %d, want ≤ 1", rep.PeakActive)
	}
	if rep.SessionsQueued != 1 {
		t.Fatalf("SessionsQueued = %d, want 1", rep.SessionsQueued)
	}
}

// TestServiceAdmissionRejects: with the wait queue full, OpenSession
// load-sheds with ErrBusy instead of blocking.
func TestServiceAdmissionRejects(t *testing.T) {
	svc, err := tenant.NewService(tenant.Options{Workers: 1, MaxSessions: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	first, err := svc.OpenSession("a")
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan *tenant.Session)
	go func() {
		s, _ := svc.OpenSession("a")
		queued <- s
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Report().SessionsQueued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second OpenSession never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.OpenSession("a"); !errors.Is(err, tenant.ErrBusy) {
		t.Fatalf("third OpenSession error = %v, want ErrBusy", err)
	}
	first.Close()
	if s := <-queued; s != nil {
		s.Close()
	}
	if rep := svc.Report(); rep.SessionsRejected != 1 {
		t.Fatalf("SessionsRejected = %d, want 1", rep.SessionsRejected)
	}
}

// TestServicePerTenantSessionCap: one tenant at its session cap blocks
// only itself — another tenant's sessions keep flowing.
func TestServicePerTenantSessionCap(t *testing.T) {
	svc, err := tenant.NewService(tenant.Options{
		Workers:  1,
		Profiles: []tenant.Profile{{Name: "small", MaxSessions: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	held, err := svc.OpenSession("small")
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan struct{})
	go func() {
		s, err := svc.OpenSession("small")
		if err == nil {
			s.Close()
		}
		close(admitted)
	}()
	select {
	case <-admitted:
		t.Fatal("tenant admitted past its MaxSessions=1")
	case <-time.After(50 * time.Millisecond):
	}
	other, err := svc.OpenSession("big") // undeclared tenant: no cap
	if err != nil {
		t.Fatalf("other tenant blocked by small's cap: %v", err)
	}
	other.Close()
	held.Close()
	select {
	case <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("queued same-tenant session never admitted")
	}
}

// TestServiceTCP: the same multi-session flow over real loopback
// sockets.
func TestServiceTCP(t *testing.T) {
	svc, err := tenant.NewService(tenant.Options{Workers: 2, Transport: "tcp", WorkerSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		s, err := svc.OpenSession(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *tenant.Session, n int) {
			defer wg.Done()
			defer s.Close()
			got := runSum(t, s, 1, n)
			if want := int64(n * (n + 1) / 2); got[0] != want {
				t.Errorf("session %d sum = %d, want %d", s.ID(), got[0], want)
			}
		}(s, 4+i)
	}
	wg.Wait()
	if rep := svc.Report(); rep.SessionsClosed != 3 || rep.TasksRun != 3+4+5+6 {
		t.Fatalf("closed/tasks = %d/%d, want 3/18 (mains included)", rep.SessionsClosed, rep.TasksRun)
	}
}

// TestServiceCloseUnblocksQueue: Close wakes queued OpenSession callers
// with ErrClosed instead of leaving them parked forever.
func TestServiceCloseUnblocksQueue(t *testing.T) {
	svc, err := tenant.NewService(tenant.Options{Workers: 1, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := svc.OpenSession("a")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error)
	go func() {
		_, err := svc.OpenSession("a")
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Report().SessionsQueued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second OpenSession never queued")
		}
		time.Sleep(time.Millisecond)
	}
	svc.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, tenant.ErrClosed) {
			t.Fatalf("queued OpenSession error = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued OpenSession not released by Close")
	}
	_ = first
}
