package cholesky

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/jade"
)

// factorOn factors m on the given runtime and returns the result.
func factorOn(t *testing.T, r *jade.Runtime, m *Matrix) *Matrix {
	t.Helper()
	var jm *JadeMatrix
	err := r.Run(func(tk *jade.Task) {
		jm = ToJade(tk, m, 1e-6)
		jm.Factor(tk)
	})
	if err != nil {
		t.Fatal(err)
	}
	return FromJade(r, jm)
}

func TestJadeFactorMatchesSerialOnSMP(t *testing.T) {
	m := Symbolic(GridLaplacian(5))
	want := m.Clone()
	FactorSerial(want)
	got := factorOn(t, jade.NewSMP(jade.SMPConfig{Procs: 8}), m)
	for j := 0; j < m.N; j++ {
		for k := range want.Cols[j] {
			if got.Cols[j][k] != want.Cols[j][k] {
				t.Fatalf("col %d[%d]: %v != %v (must be bitwise identical: same "+
					"operations in the same serial order)", j, k, got.Cols[j][k], want.Cols[j][k])
			}
		}
	}
}

func TestJadeFactorMatchesSerialOnSimulatedPlatforms(t *testing.T) {
	m := Symbolic(RandomSPD(25, 3, 7))
	want := m.Clone()
	FactorSerial(want)
	for name, plat := range map[string]jade.Platform{
		"dash": jade.DASH(4),
		"ipsc": jade.IPSC860(4),
		"mica": jade.Mica(3),
		"ws":   jade.Workstations(4), // heterogeneous formats
	} {
		r, err := jade.NewSimulated(jade.SimConfig{Platform: plat})
		if err != nil {
			t.Fatal(err)
		}
		got := factorOn(t, r, m)
		for j := 0; j < m.N; j++ {
			for k := range want.Cols[j] {
				if got.Cols[j][k] != want.Cols[j][k] {
					t.Fatalf("%s: col %d[%d]: %v != %v", name, j, k, got.Cols[j][k], want.Cols[j][k])
				}
			}
		}
	}
}

func TestJadeFactorThenPipelinedSolve(t *testing.T) {
	orig := GridLaplacian(4)
	m := Symbolic(orig)
	serial := m.Clone()
	FactorSerial(serial)
	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(i + 1)
	}
	wantY := append([]float64(nil), b...)
	ForwardSolveSerial(serial, wantY)

	for _, pipelined := range []bool{true, false} {
		r, err := jade.NewSimulated(jade.SimConfig{Platform: jade.IPSC860(4)})
		if err != nil {
			t.Fatal(err)
		}
		var x *jade.Array[float64]
		err = r.Run(func(tk *jade.Task) {
			jm := ToJade(tk, m, 1e-6)
			x = jade.NewArrayFrom(tk, append([]float64(nil), b...), "x")
			jm.Factor(tk)
			jm.ForwardSolve(tk, x, pipelined)
		})
		if err != nil {
			t.Fatal(err)
		}
		got := jade.Final(r, x)
		for i := range wantY {
			if got[i] != wantY[i] {
				t.Fatalf("pipelined=%v: y[%d] = %v, want %v", pipelined, i, got[i], wantY[i])
			}
		}
	}
}

func TestPipeliningOverlapsFactorization(t *testing.T) {
	// The pipelined solve (df_rd + with-cont) must finish no later than the
	// barrier solve, and on a multi-machine platform strictly earlier.
	m := Symbolic(GridLaplacian(8))
	b := make([]float64, m.N)
	for i := range b {
		b[i] = 1
	}
	makespan := func(pipelined bool) float64 {
		r, err := jade.NewSimulated(jade.SimConfig{Platform: jade.IPSC860(4)})
		if err != nil {
			t.Fatal(err)
		}
		err = r.Run(func(tk *jade.Task) {
			jm := ToJade(tk, m, 2e-5)
			x := jade.NewArrayFrom(tk, append([]float64(nil), b...), "x")
			jm.Factor(tk)
			jm.ForwardSolve(tk, x, pipelined)
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Makespan().Seconds()
	}
	p := makespan(true)
	np := makespan(false)
	if p >= np {
		t.Fatalf("pipelined solve should overlap factorization: pipelined=%.6fs barrier=%.6fs", p, np)
	}
}

func TestFig4TaskGraphShape(t *testing.T) {
	// Reproduce the Figure 4 dynamic task graph: every external(i,j) task
	// depends on internal(i) (its source column's final value) and on the
	// previous writer of column j; internal(j) depends on all externals
	// into j.
	m := Symbolic(GridLaplacian(3))
	r := GraphRuntime()
	_ = factorOn(t, r, m)

	labels := map[uint64]string{}
	for _, ev := range r.TraceLog().Filter(trace.TaskCreated) {
		labels[ev.Task] = ev.Label
	}
	deps := map[string]map[string]bool{}
	for _, ev := range r.TraceLog().Filter(trace.Depend) {
		from, to := labels[ev.Task], labels[ev.Other]
		if deps[to] == nil {
			deps[to] = map[string]bool{}
		}
		deps[to][from] = true
	}
	// Each external(i,j) must depend on internal(i).
	for to, froms := range deps {
		if strings.HasPrefix(to, "external(") {
			var i, j int
			fmt.Sscanf(to, "external(%d,%d)", &i, &j)
			if !froms[fmt.Sprintf("internal(%d)", i)] {
				t.Fatalf("%s lacks dependence on internal(%d); deps=%v", to, i, froms)
			}
		}
	}
	// internal(j) for a column with incoming updates must depend on them.
	for j := 1; j < m.N; j++ {
		hasIncoming := false
		for i := 0; i < j; i++ {
			for _, rr := range m.colRows(i) {
				if int(rr) == j {
					hasIncoming = true
				}
			}
		}
		if hasIncoming {
			froms := deps[fmt.Sprintf("internal(%d)", j)]
			ok := false
			for f := range froms {
				if strings.HasPrefix(f, "external(") && strings.HasSuffix(f, fmt.Sprintf(",%d)", j)) {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("internal(%d) lacks dependence on externals into column %d: %v", j, j, froms)
			}
		}
	}
	// And the DOT rendering contains the nodes.
	dot := r.TaskGraphDOT("fig4")
	if !strings.Contains(dot, "internal(0)") || !strings.Contains(dot, "->") {
		t.Fatal("DOT output incomplete")
	}
}

func TestJadeFactorSpeedsUpWithMachines(t *testing.T) {
	m := Symbolic(GridLaplacian(10))
	run := func(n int) float64 {
		r, err := jade.NewSimulated(jade.SimConfig{Platform: jade.DASH(n)})
		if err != nil {
			t.Fatal(err)
		}
		err = r.Run(func(tk *jade.Task) {
			jm := ToJade(tk, m, 5e-5)
			jm.Factor(tk)
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Makespan().Seconds()
	}
	t1, t4 := run(1), run(4)
	if t4 >= t1 {
		t.Fatalf("no speedup: 1p=%.4fs 4p=%.4fs", t1, t4)
	}
}
