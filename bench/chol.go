package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/apps/cholesky"
	"repro/jade"
)

// cholGrid is the fixed problem of the three chol_* workloads: the sparse
// Cholesky factorization of the 12×12 grid Laplacian (144 columns, 1740
// tasks with ~40 ns bodies). The matrix does not depend on -seed.
const cholGrid = 12

// cholWarmOps is the fixed number of untimed warm-up ops per set-up,
// sized to roughly half a second on each executor.
var cholWarmOps = map[string]int{"smp": 30, "inproc": 12, "tcp": 4}

// chol is one closed-loop Cholesky workload on one executor. An op builds
// a fresh runtime, runs ToJade+Factor, and reads the factor back.
type chol struct {
	exec    string // "smp", "inproc" or "tcp"
	sloMs   float64
	m       *cholesky.Matrix
	oracle  *cholesky.Matrix
	tasksOp int // Report().Tasks.Run of one op, read once in set-up
}

func setupChol(exec string, sloMs float64) (instance, error) {
	c := &chol{exec: exec, sloMs: sloMs}
	c.m = cholesky.Symbolic(cholesky.GridLaplacian(cholGrid))
	c.oracle = c.m.Clone()
	cholesky.FactorSerial(c.oracle)
	// The first warm-up op reads Report() to learn the op's task count.
	for i := 0; i < cholWarmOps[exec]; i++ {
		_, tasks, err := c.op(&pass{report: i == 0}, 0)
		if err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
		if i == 0 {
			c.tasksOp = tasks
		}
	}
	return c, nil
}

func (c *chol) newRuntime(traced bool) (*jade.Runtime, error) {
	if c.exec == "smp" {
		return jade.NewSMP(jade.SMPConfig{Procs: fleetWorkers, Trace: traced}), nil
	}
	return jade.NewLive(jade.LiveConfig{Workers: fleetWorkers, Transport: c.exec, Trace: traced})
}

// op runs one factorization. The op's latency covers runtime construction
// through read-back; Report() and the oracle comparison are outside it.
func (c *chol) op(p *pass, lane int32) (ms float64, tasks int, err error) {
	id := p.nextOp()
	rec := p.rec
	root := rec.begin("op", -1, id, lane)
	start := time.Now()

	sp := rec.begin("setup", root, id, lane)
	r, err := c.newRuntime(p.traced)
	rec.end(sp)
	if err != nil {
		return 0, 0, err
	}
	var jm *cholesky.JadeMatrix
	var drain int32
	err = r.Run(func(t *jade.Task) {
		sp := rec.begin("alloc", root, id, lane)
		jm = cholesky.ToJade(t, c.m, 0)
		rec.end(sp)
		sp = rec.begin("issue", root, id, lane)
		jm.Factor(t)
		rec.end(sp)
		drain = rec.begin("drain", root, id, lane)
	})
	rec.end(drain)
	if err != nil {
		rec.end(root)
		return 0, 0, err
	}
	sp = rec.begin("gather", root, id, lane)
	got := cholesky.FromJade(r, jm)
	rec.end(sp)
	ms = float64(time.Since(start)) / 1e6

	tasks = c.tasksOp
	if p.report {
		sp = rec.begin("report", root, id, lane)
		rep := r.Report()
		rec.end(sp)
		tasks = rep.Tasks.Run
		p.mu.Lock()
		p.layers.addReport(rep, traceEvents(r))
		p.mu.Unlock()
	}
	rec.covered(c.m.N+2, tasks-1)
	rec.end(root)
	if !reflect.DeepEqual(got.Cols, c.oracle.Cols) {
		return 0, 0, fmt.Errorf("factor differs from the serial oracle")
	}
	return ms, tasks, nil
}

func (c *chol) round(dur time.Duration, p *pass) roundResult {
	return closedLoop(1, dur, c.sloMs, func(client int) (float64, int, error) {
		return c.op(p, int32(client))
	})
}

func (c *chol) close() {}
