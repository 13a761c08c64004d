// Benchmarks regenerating the paper's evaluation artifacts (one per table
// and figure; see DESIGN.md §3 for the experiment index) plus real
// shared-memory speedup measurements and runtime microbenchmarks.
//
// Simulated experiments report virtual time as the custom metric
// "sim_sec/op" — the quantity the paper's figures plot. Wall-clock ns/op
// for those measures only how fast the simulator itself runs.
package repro

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/apps/barneshut"
	"repro/internal/apps/cholesky"
	"repro/internal/apps/pmake"
	"repro/internal/apps/video"
	"repro/internal/apps/water"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/jade"
)

// BenchmarkFig4TaskGraph regenerates the Figure 4 dynamic task graph.
func BenchmarkFig4TaskGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7TwoMachineExecution regenerates the Figure 7 two-machine
// message-passing execution.
func BenchmarkFig7TwoMachineExecution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// waterOn runs one Figure 9 data point and reports the simulated seconds.
func waterOn(b *testing.B, plat jade.Platform, procs int) {
	b.Helper()
	cfg := water.Config{N: 729, Steps: 1, Tasks: procs, Seed: 1992, WorkPerFlop: 1e-7}
	var sim float64
	for i := 0; i < b.N; i++ {
		r, err := jade.NewSimulated(jade.SimConfig{Platform: plat})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := water.RunJade(r, cfg); err != nil {
			b.Fatal(err)
		}
		sim = r.Makespan().Seconds()
	}
	b.ReportMetric(sim, "sim_sec/op")
}

// BenchmarkFig9WaterRunningTime regenerates the Figure 9 running times
// (reduced problem size; cmd/jadebench runs the full 2197 molecules).
func BenchmarkFig9WaterRunningTime(b *testing.B) {
	for _, procs := range []int{1, 4, 16} {
		procs := procs
		b.Run(fmt.Sprintf("dash-%d", procs), func(b *testing.B) { waterOn(b, jade.DASH(procs), procs) })
		b.Run(fmt.Sprintf("ipsc-%d", procs), func(b *testing.B) { waterOn(b, jade.IPSC860(procs), procs) })
		if procs <= 8 {
			b.Run(fmt.Sprintf("mica-%d", procs), func(b *testing.B) { waterOn(b, jade.Mica(procs), procs) })
		}
	}
}

// BenchmarkFig10WaterSpeedup reports the Figure 10 speedups directly.
func BenchmarkFig10WaterSpeedup(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func(int) jade.Platform
		p    int
	}{
		{"dash-16", jade.DASH, 16},
		{"ipsc-16", jade.IPSC860, 16},
		{"mica-8", jade.Mica, 8},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cfg := water.Config{N: 729, Steps: 1, Seed: 1992, WorkPerFlop: 1e-7}
			var speedup float64
			for i := 0; i < b.N; i++ {
				run := func(p int) float64 {
					c := cfg
					c.Tasks = p
					r, err := jade.NewSimulated(jade.SimConfig{Platform: tc.mk(p)})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := water.RunJade(r, c); err != nil {
						b.Fatal(err)
					}
					return r.Makespan().Seconds()
				}
				speedup = run(1) / run(tc.p)
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkSMPWaterReal measures real goroutine parallelism on the host:
// the shared-memory implementation running actual computation.
func BenchmarkSMPWaterReal(b *testing.B) {
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		procs := procs
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			cfg := water.Config{N: 600, Steps: 1, Tasks: procs * 2, Seed: 7}
			for i := 0; i < b.N; i++ {
				r := jade.NewSMP(jade.SMPConfig{Procs: procs})
				if _, err := water.RunJade(r, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkC1DSMFalseSharing regenerates the §6.1 DSM traffic comparison.
func BenchmarkC1DSMFalseSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.C1DSM(6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkC2LindaCoordination regenerates the §6.2 Linda comparison.
func BenchmarkC2LindaCoordination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.C2Linda(water.Config{N: 60, Steps: 1, Tasks: 3, Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLocality regenerates ablation A1.
func BenchmarkAblationLocality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.A1Locality(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPrefetch regenerates ablation A2.
func BenchmarkAblationPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.A2Prefetch(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationThrottle regenerates ablation A3.
func BenchmarkAblationThrottle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.A3Throttle(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinedBacksubst regenerates ablation A4 (§4.2).
func BenchmarkPipelinedBacksubst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.A4Pipeline(6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVideoPipeline regenerates H1 (§7.2).
func BenchmarkVideoPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.H1Video(12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelMake regenerates M1 (§7.1).
func BenchmarkParallelMake(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.M1Make(12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrainSupernodes regenerates extension experiment G1 (§3.2).
func BenchmarkGrainSupernodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.G1Grain(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommutingUpdates regenerates extension experiment G2 (§4.3).
func BenchmarkCommutingUpdates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.G2Commute(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrainSweepWater regenerates extension experiment G3 (§8).
func BenchmarkGrainSweepWater(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WaterGrainSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBarnesHutSpeedup regenerates kernel experiment K1 (§7).
func BenchmarkBarnesHutSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.K1BarnesHut(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCholeskyJadeVsSerial measures the Jade overhead on the SMP
// executor against the plain serial factorization.
func BenchmarkCholeskyJadeVsSerial(b *testing.B) {
	m := cholesky.Symbolic(cholesky.GridLaplacian(12))
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := m.Clone()
			cholesky.FactorSerial(c)
		}
	})
	b.Run("jade-smp-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := jade.NewSMP(jade.SMPConfig{Procs: 4})
			err := r.Run(func(t *jade.Task) {
				jm := cholesky.ToJade(t, m, 0)
				jm.Factor(t)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBarnesHutJade measures the Barnes-Hut kernel under Jade.
func BenchmarkBarnesHutJade(b *testing.B) {
	cfg := barneshut.Config{N: 512, Steps: 1, Blocks: 4, Seed: 1}
	for i := 0; i < b.N; i++ {
		r := jade.NewSMP(jade.SMPConfig{Procs: 4})
		if _, err := barneshut.RunJade(r, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMakeParse measures the makefile front end.
func BenchmarkMakeParse(b *testing.B) {
	src := "prog: a.o b.o\n\tlink a.o b.o\na.o: a.c\n\tcc a.c\nb.o: b.c\n\tcc b.c\n"
	for i := 0; i < b.N; i++ {
		if _, err := pmake.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVideoSerialKernel measures the frame-processing kernel itself.
func BenchmarkVideoSerialKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		video.RunSerial(video.Config{Frames: 4, FrameBytes: 1024})
	}
}

// BenchmarkEngineTaskLifecycle measures the dependency engine's raw task
// throughput (create + start + complete with one object each).
func BenchmarkEngineTaskLifecycle(b *testing.B) {
	e := core.New(core.Hooks{Ready: func(t *core.Task) {}})
	root := e.Root()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := e.Create(root, []access.Decl{{Object: access.ObjectID(i%64 + 1), Mode: access.ReadWrite}}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Start(t); err != nil {
			b.Fatal(err)
		}
		if err := e.Complete(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughput measures parallel engine throughput: G
// goroutines, each owning a long-running worker task, hammer the full
// create/start/complete lifecycle. In the "disjoint" variants every worker
// uses a private object, so a sharded engine serializes nothing; in the
// "contended" variants every child declares a (non-conflicting, read-only)
// right on one hot object, so all goroutines hit the same queue.
func BenchmarkEngineThroughput(b *testing.B) {
	for _, g := range []int{1, 8} {
		for _, contended := range []bool{false, true} {
			kind := "disjoint"
			if contended {
				kind = "contended"
			}
			b.Run(fmt.Sprintf("%s-g%d", kind, g), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(g))
				e := core.New(core.Hooks{Ready: func(t *core.Task) {}})
				root := e.Root()
				workers := make([]*core.Task, g)
				for i := range workers {
					obj := access.ObjectID(i + 1)
					mode := access.ReadWrite
					if contended {
						obj, mode = 1, access.Read
					}
					w, err := e.Create(root, []access.Decl{{Object: obj, Mode: mode}}, nil)
					if err != nil {
						b.Fatal(err)
					}
					if err := e.Start(w); err != nil {
						b.Fatal(err)
					}
					workers[i] = w
				}
				var next int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := atomic.AddInt64(&next, 1) - 1
					w := workers[i%int64(g)]
					obj := access.ObjectID(i%int64(g) + 1)
					mode := access.ReadWrite
					if contended {
						obj, mode = 1, access.Read
					}
					decls := []access.Decl{{Object: obj, Mode: mode}}
					for pb.Next() {
						t, err := e.Create(w, decls, nil)
						if err != nil {
							b.Fatal(err)
						}
						if err := e.Start(t); err != nil {
							b.Fatal(err)
						}
						if err := e.Complete(t); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// BenchmarkEngineConflictChain measures the engine with every task
// conflicting on one object (worst-case queueing).
func BenchmarkEngineConflictChain(b *testing.B) {
	e := core.New(core.Hooks{Ready: func(t *core.Task) {}})
	root := e.Root()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := e.Create(root, []access.Decl{{Object: 1, Mode: access.ReadWrite}}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Start(t); err != nil {
			b.Fatal(err)
		}
		if err := e.Complete(t); err != nil {
			b.Fatal(err)
		}
	}
}

// engineBacklog drives one engine, Depend hook installed, through n tasks
// with the Cholesky program's shape — groups of one internal(g) (rd_wr on
// column g) and seven external(g,g+k) (rd_wr on column g+k, rd on column g),
// every task also rd on the two structure objects — keeping a FIFO window
// of live tasks behind the one being created, the way a real run keeps
// MaxLiveTasks of them: the two shared queues hold live entries each, the
// column queues the same few whatever the window. started is called once
// set-up is done. It returns the engine's counters.
func engineBacklog(tb testing.TB, live, n int, started func()) core.Stats {
	const cols = 144
	e := core.New(core.Hooks{
		Ready:  func(*core.Task) {},
		Depend: func(*core.Task, []core.Dep) {},
	})
	root := e.Root()
	for obj := access.ObjectID(1); obj <= cols+2; obj++ {
		e.RegisterObject(root, obj)
	}
	finish := func(t *core.Task) {
		// Everything earlier has completed, so t is Ready and every view
		// is granted at once.
		if err := e.Start(t); err != nil {
			tb.Fatal(err)
		}
		for _, d := range t.Decls {
			if ok, err := e.Access(t, d.Object, d.Mode, nil); !ok || err != nil {
				tb.Fatalf("access %v: ok=%v err=%v", d, ok, err)
			}
		}
		if err := e.Complete(t); err != nil {
			tb.Fatal(err)
		}
	}
	window := make([]*core.Task, live)
	started()
	col := func(j int) access.ObjectID { return access.ObjectID(3 + j%cols) }
	for i := 0; i < n; i++ {
		if old := window[i%live]; old != nil {
			finish(old)
		}
		g, k := i/8, i%8
		decls := []access.Decl{
			{Object: col(g + k), Mode: access.ReadWrite},
			{Object: 1, Mode: access.Read},
			{Object: 2, Mode: access.Read},
		}
		if k > 0 {
			decls = append(decls, access.Decl{Object: col(g), Mode: access.Read})
		}
		t, err := e.Create(root, decls, nil)
		if err != nil {
			tb.Fatal(err)
		}
		window[i%live] = t
	}
	for i := n; i < n+live; i++ {
		if old := window[i%live]; old != nil {
			finish(old)
		}
	}
	return e.Stats()
}

// BenchmarkEngineBacklog is the engine cycle the chol_* workloads feel:
// the same create/start/access/complete as the short-queue cases above,
// but with live tasks queued behind the two objects every task reads.
func BenchmarkEngineBacklog(b *testing.B) {
	for _, live := range []int{16, 256} {
		b.Run(fmt.Sprintf("live-%d", live), func(b *testing.B) {
			st := engineBacklog(b, live, b.N, b.ResetTimer)
			b.ReportMetric(float64(st.EntriesScanned)/float64(b.N), "scanned/op")
		})
	}
}

// TestEngineCostIndependentOfBacklog is the non-timing form of the above:
// the entries an operation visits must not grow with the number of
// compatible entries queued behind the shared objects.
func TestEngineCostIndependentOfBacklog(t *testing.T) {
	const n = 4000
	short := engineBacklog(t, 16, n, func() {})
	long := engineBacklog(t, 256, n, func() {})
	if long.MaxQueueLen < 256 {
		t.Fatalf("backlog not built: MaxQueueLen = %d", long.MaxQueueLen)
	}
	perShort := float64(short.EntriesScanned) / n
	perLong := float64(long.EntriesScanned) / n
	t.Logf("entries scanned per task: %.2f at 16 live, %.2f at 256 live", perShort, perLong)
	if perLong > 2*perShort {
		t.Fatalf("scanned/task grows with the backlog: %.2f at 16 live, %.2f at 256 live", perShort, perLong)
	}
}
