package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/pmake"
	"repro/internal/apps/water"
	"repro/jade"
)

// MT1Point is one measured transport in the multi-tenant serving bench.
type MT1Point struct {
	Transport     string
	Sessions      int
	Tenants       int
	Workers       int
	MaxConcurrent int
	WallNS        int64
	Tasks         int
	TasksPerSec   float64
	PeakActive    int
	Queued        int
	Frames        int
	Bytes         int64
}

// MT1Result carries the rendered table plus the raw points.
type MT1Result struct {
	Table  *Table
	Points []MT1Point
}

// mt1Tenants is the tenant population: four quota buckets the sessions
// round-robin across, each capped at 2 slots per worker.
const mt1Tenants = 4

// MT1Tenant measures the multi-tenant session service: `sessions` small
// Jade programs — a rotating mix of sparse Cholesky, Water, and parallel
// make — thrown at one shared fleet at once, on each transport. The
// service admits at most maxConcurrent sessions at a time (the rest
// queue), per-tenant slot quotas bound each tenant's share of every
// worker, and every single session is still checked bit-identical
// against its workload's serial oracle: multi-tenancy must not cost
// determinism. The headline number is aggregate tasks/sec across the
// whole session stream.
func MT1Tenant(sessions, workers, maxConcurrent int) (*MT1Result, error) {
	if sessions == 0 {
		sessions = 100
	}
	if workers == 0 {
		workers = 4
	}
	if maxConcurrent == 0 {
		maxConcurrent = 16
	}

	// Serial oracles, one per workload kind, computed once.
	mC := cholesky.Symbolic(cholesky.GridLaplacian(4))
	oC := mC.Clone()
	cholesky.FactorSerial(oC)
	cfgW := water.Config{N: 27, Steps: 1, Tasks: 2, Seed: 7}.WithDefaults()
	oW := water.RunSerial(cfgW)
	mfSrc, pO := wideProject(4)
	mfO, err := pmake.Parse(mfSrc)
	if err != nil {
		return nil, fmt.Errorf("MT1: %w", err)
	}
	listO, err := pmake.BuildSerial(pO, mfO, "prog")
	if err != nil {
		return nil, fmt.Errorf("MT1: %w", err)
	}

	// runOne executes session i's workload and checks it against the
	// oracle for its kind.
	runOne := func(s *jade.Session, i int) error {
		switch i % 3 {
		case 0: // sparse Cholesky
			var jm *cholesky.JadeMatrix
			if err := s.Run(func(t *jade.Task) {
				jm = cholesky.ToJade(t, mC, 0)
				jm.Factor(t)
			}); err != nil {
				return err
			}
			if got := cholesky.FromJade(s.Runtime, jm); !reflect.DeepEqual(got.Cols, oC.Cols) {
				return fmt.Errorf("cholesky differs from the serial oracle")
			}
		case 1: // Water
			got, err := water.RunJade(s.Runtime, cfgW)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, oW) {
				return fmt.Errorf("water state differs from the serial oracle")
			}
		case 2: // parallel make (fresh project: builds mutate it)
			src, p := wideProject(4)
			mf, err := pmake.Parse(src)
			if err != nil {
				return err
			}
			list, err := pmake.BuildJade(s.Runtime, p, mf, "prog", 2e-6)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(list, listO) {
				return fmt.Errorf("build order differs from the serial oracle")
			}
		}
		return nil
	}

	res := &MT1Result{Table: &Table{
		ID: "MT1",
		Title: fmt.Sprintf("multi-tenant serving: %d sessions (cholesky/water/make) × %d tenants on %d workers, ≤%d concurrent",
			sessions, mt1Tenants, workers, maxConcurrent),
		Columns: []string{"transport", "wall time", "tasks", "tasks/sec",
			"peak active", "queued", "frames", "bytes moved"},
	}}
	for _, tr := range []string{"inproc", "tcp"} {
		var profiles []jade.TenantProfile
		for i := 0; i < mt1Tenants; i++ {
			profiles = append(profiles, jade.TenantProfile{
				Name: fmt.Sprintf("tenant-%d", i), SlotsPerWorker: 2,
			})
		}
		svc, err := jade.NewService(jade.ServiceConfig{
			Workers:     workers,
			Transport:   tr,
			WorkerSlots: 2,
			MaxSessions: maxConcurrent,
			MaxQueue:    sessions + 1, // the whole stream may queue; never shed
			Tenants:     profiles,
		})
		if err != nil {
			return nil, fmt.Errorf("MT1 %s: %w", tr, err)
		}
		errs := make([]error, sessions)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s, err := svc.OpenSession(fmt.Sprintf("tenant-%d", i%mt1Tenants))
				if err != nil {
					errs[i] = err
					return
				}
				defer s.Close()
				errs[i] = runOne(s, i)
			}(i)
		}
		wg.Wait()
		wall := time.Since(start)
		for i, err := range errs {
			if err != nil {
				svc.Close()
				return nil, fmt.Errorf("MT1 %s session %d: %w", tr, i, err)
			}
		}
		rep := svc.Report()
		svc.Close()
		if rep.SessionsAdmitted != sessions || rep.SessionsClosed != sessions {
			return nil, fmt.Errorf("MT1 %s: admitted/closed = %d/%d, want %d/%d",
				tr, rep.SessionsAdmitted, rep.SessionsClosed, sessions, sessions)
		}
		if rep.SessionsRejected != 0 {
			return nil, fmt.Errorf("MT1 %s: %d sessions rejected with the queue sized for the stream", tr, rep.SessionsRejected)
		}
		if rep.PeakActive > maxConcurrent {
			return nil, fmt.Errorf("MT1 %s: peak active %d exceeds admission cap %d", tr, rep.PeakActive, maxConcurrent)
		}
		if sessions >= 2*maxConcurrent && rep.SessionsQueued == 0 {
			return nil, fmt.Errorf("MT1 %s: %d sessions through a %d-session gate never queued", tr, sessions, maxConcurrent)
		}
		for _, w := range rep.Workers {
			if w.Ledger.Violation != "" {
				return nil, fmt.Errorf("MT1 %s: worker %s slot ledger violation: %s", tr, w.Name, w.Ledger.Violation)
			}
			if w.Ledger.Held != 0 {
				return nil, fmt.Errorf("MT1 %s: worker %s still holds %d slots after the stream drained", tr, w.Name, w.Ledger.Held)
			}
			for ten, u := range w.Ledger.PerTenant {
				if u.Cap > 0 && u.Peak > u.Cap {
					return nil, fmt.Errorf("MT1 %s: worker %s tenant %s peaked at %d slots, cap %d", tr, w.Name, ten, u.Peak, u.Cap)
				}
			}
		}
		secs := wall.Seconds()
		p := MT1Point{
			Transport: tr, Sessions: sessions, Tenants: mt1Tenants,
			Workers: workers, MaxConcurrent: maxConcurrent,
			WallNS:      wall.Nanoseconds(),
			Tasks:       rep.TasksRun,
			TasksPerSec: float64(rep.TasksRun) / secs,
			PeakActive:  rep.PeakActive,
			Queued:      rep.SessionsQueued,
			Frames:      rep.Frames,
			Bytes:       rep.Bytes,
		}
		res.Points = append(res.Points, p)
		res.Table.AddRow(tr, wall.Round(time.Microsecond), p.Tasks,
			fmt.Sprintf("%.0f", p.TasksPerSec), p.PeakActive, p.Queued, p.Frames, p.Bytes)
	}
	res.Table.Notes = append(res.Table.Notes,
		"every session is checked bit-identical against its workload's serial oracle",
		"peak active ≤ the admission cap and per-tenant slot peaks ≤ quota are hard assertions, not observations")
	return res, nil
}
