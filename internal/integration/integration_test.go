// Package integration sweeps every application across every execution
// substrate — the paper's headline portability claim ("There are no source
// code modifications required to port Jade applications between these
// platforms") plus its determinism claim, as one test matrix.
package integration

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/apps/barneshut"
	"repro/internal/apps/cholesky"
	"repro/internal/apps/pmake"
	"repro/internal/apps/video"
	"repro/internal/apps/water"
	"repro/jade"
)

// runtimesUnderTest builds one runtime per platform family: the smp
// executor, the simulated platforms, the live executor on both transports,
// and a session of the multi-tenant service on the live fleet.
func runtimesUnderTest() map[string]func(t *testing.T) *jade.Runtime {
	sim := func(p jade.Platform) func(t *testing.T) *jade.Runtime {
		return func(t *testing.T) *jade.Runtime {
			r, err := jade.NewSimulated(jade.SimConfig{Platform: p})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	live := func(transport string) func(t *testing.T) *jade.Runtime {
		return func(t *testing.T) *jade.Runtime {
			r, err := jade.NewLive(jade.LiveConfig{Workers: 3, Transport: transport})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	return map[string]func(t *testing.T) *jade.Runtime{
		"smp-goroutines": func(*testing.T) *jade.Runtime { return jade.NewSMP(jade.SMPConfig{Procs: 4}) },
		"dash-4":         sim(jade.DASH(4)),
		"ipsc860-4":      sim(jade.IPSC860(4)),
		"mica-3":         sim(jade.Mica(3)),
		"workstations-4": sim(jade.Workstations(4)),
		"live-inproc":    live("inproc"),
		"live-tcp":       live("tcp"),
		"service":        serviceSession,
	}
}

// serviceSession opens one session on a fresh multi-tenant service whose
// tenant holds one slot per worker. Cleanup closes both and checks what
// admission and quotas promise: the session cap and every per-tenant slot
// peak held, and every slot given back.
func serviceSession(t *testing.T) *jade.Runtime {
	const maxSessions = 1
	svc, err := jade.NewService(jade.ServiceConfig{
		Workers:     3,
		WorkerSlots: 2,
		MaxSessions: maxSessions,
		Tenants:     []jade.TenantProfile{{Name: "tenant", SlotsPerWorker: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := svc.OpenSession("tenant")
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		rep := svc.Report()
		svc.Close()
		if rep.PeakActive > maxSessions || rep.SessionsClosed != rep.SessionsAdmitted {
			t.Errorf("peak active %d (cap %d), %d admitted, %d closed", rep.PeakActive, maxSessions, rep.SessionsAdmitted, rep.SessionsClosed)
		}
		for _, w := range rep.Workers {
			if w.Ledger.Violation != "" || w.Ledger.Held != 0 {
				t.Errorf("worker %s: ledger violation %q, %d slots still held", w.Name, w.Ledger.Violation, w.Ledger.Held)
			}
			for ten, u := range w.Ledger.PerTenant {
				if u.Cap > 0 && u.Peak > u.Cap {
					t.Errorf("worker %s: tenant %s peaked at %d slots, cap %d", w.Name, ten, u.Peak, u.Cap)
				}
			}
		}
	})
	return s.Runtime
}

func TestCholeskyEverywhere(t *testing.T) {
	m := cholesky.Symbolic(cholesky.GridLaplacian(5))
	want := m.Clone()
	cholesky.FactorSerial(want)
	for name, mk := range runtimesUnderTest() {
		t.Run(name, func(t *testing.T) {
			r := mk(t)
			var jm *cholesky.JadeMatrix
			if err := r.Run(func(tk *jade.Task) {
				jm = cholesky.ToJade(tk, m, 1e-6)
				jm.Factor(tk)
			}); err != nil {
				t.Fatal(err)
			}
			got := cholesky.FromJade(r, jm)
			for j := 0; j < m.N; j++ {
				for k := range want.Cols[j] {
					if got.Cols[j][k] != want.Cols[j][k] {
						t.Fatalf("col %d[%d] differs", j, k)
					}
				}
			}
		})
	}
}

func TestSupernodalCholeskyEverywhere(t *testing.T) {
	m := cholesky.Symbolic(cholesky.GridLaplacian(5))
	bounds := cholesky.Supernodes(m, 3)
	want := m.Clone()
	cholesky.FactorSerialSupernodal(want, bounds)
	for name, mk := range runtimesUnderTest() {
		t.Run(name, func(t *testing.T) {
			r := mk(t)
			var js *cholesky.JadeSupernodal
			if err := r.Run(func(tk *jade.Task) {
				js = cholesky.ToJadeSupernodal(tk, m, bounds, 1e-6)
				js.Factor(tk)
			}); err != nil {
				t.Fatal(err)
			}
			got := cholesky.FromJadeSupernodal(r, js)
			for j := 0; j < m.N; j++ {
				for k := range want.Cols[j] {
					if got.Cols[j][k] != want.Cols[j][k] {
						t.Fatalf("col %d[%d] differs", j, k)
					}
				}
			}
		})
	}
}

func TestWaterEverywhere(t *testing.T) {
	cfg := water.Config{N: 64, Steps: 2, Tasks: 4, Seed: 3}
	want := water.RunSerial(cfg)
	for name, mk := range runtimesUnderTest() {
		t.Run(name, func(t *testing.T) {
			got, err := water.RunJade(mk(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Pos {
				if got.Pos[i] != want.Pos[i] || got.Vel[i] != want.Vel[i] {
					t.Fatalf("state differs at %d", i)
				}
			}
			if got.Energy != want.Energy {
				t.Fatalf("energy %v vs %v", got.Energy, want.Energy)
			}
		})
	}
}

func TestBarnesHutEverywhere(t *testing.T) {
	cfg := barneshut.Config{N: 96, Steps: 1, Blocks: 4, Seed: 7}
	want := barneshut.RunSerial(cfg)
	for name, mk := range runtimesUnderTest() {
		t.Run(name, func(t *testing.T) {
			got, err := barneshut.RunJade(mk(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Pos {
				if got.Pos[i] != want.Pos[i] {
					t.Fatalf("pos differs at %d", i)
				}
			}
		})
	}
}

func TestMakeEverywhere(t *testing.T) {
	const src = "p: a.o b.o\n\tlink a.o b.o\na.o: a.c\n\tcc a.c\nb.o: b.c\n\tcc b.c\n"
	mf, err := pmake.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	mkProject := func() *pmake.Project {
		p := pmake.NewProject()
		p.WriteFile("a.c", []byte("alpha"))
		p.WriteFile("b.c", []byte("beta"))
		return p
	}
	ref := mkProject()
	if _, err := pmake.BuildSerial(ref, mf, "p"); err != nil {
		t.Fatal(err)
	}
	for name, mk := range runtimesUnderTest() {
		t.Run(name, func(t *testing.T) {
			p := mkProject()
			if _, err := pmake.BuildJade(mk(t), p, mf, "p", 1e-6); err != nil {
				t.Fatal(err)
			}
			for f, want := range ref.Files {
				if !bytes.Equal(p.Files[f], want) {
					t.Fatalf("file %s differs", f)
				}
			}
		})
	}
}

func TestVideoOnHRVSizes(t *testing.T) {
	cfg := video.Config{Frames: 6, FrameBytes: 256}
	want := video.RunSerial(cfg)
	for _, accels := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("hrv-%d", accels), func(t *testing.T) {
			r, err := jade.NewSimulated(jade.SimConfig{Platform: jade.HRV(accels)})
			if err != nil {
				t.Fatal(err)
			}
			got, err := video.RunJade(r, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for f := range want {
				if got.Checksums[f] != want[f] {
					t.Fatalf("frame %d differs", f)
				}
			}
		})
	}
}
