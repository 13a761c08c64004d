package cholesky

import (
	"fmt"

	"repro/jade"
)

// JadeMatrix is the shared-object version of Matrix: each column is one
// shared object (the paper's granularity decision, §3.2 — "the programmer
// decomposes the data into the atomic units that the program will access"),
// and the structure arrays are shared read-only objects that replicate to
// every machine that needs them.
type JadeMatrix struct {
	N int
	// Local copies of the structure for the creating task's declaration
	// loops (the paper's factor routine reads r and c while generating
	// access specifications).
	ColPtrLocal []int32
	RowIdxLocal []int32
	// Shared structure objects, declared rd by every task.
	ColPtr *jade.Array[int32]
	RowIdx *jade.Array[int32]
	// Cols[j] is column j, the unit of synchronization and motion.
	Cols []*jade.Array[float64]
	// WorkPerFlop converts flop counts into simulator work units (seconds
	// at machine speed 1.0). Zero disables cost modeling.
	WorkPerFlop float64
}

// ToJade allocates shared objects for the matrix. Call from the task that
// owns the data (typically the main program).
func ToJade(t *jade.Task, m *Matrix, workPerFlop float64) *JadeMatrix {
	jm := &JadeMatrix{
		N:           m.N,
		ColPtrLocal: append([]int32(nil), m.ColPtr...),
		RowIdxLocal: append([]int32(nil), m.RowIdx...),
		WorkPerFlop: workPerFlop,
	}
	jm.ColPtr = jade.NewArrayFrom(t, append([]int32(nil), m.ColPtr...), "colptr")
	jm.RowIdx = jade.NewArrayFrom(t, append([]int32(nil), m.RowIdx...), "rowidx")
	for j := 0; j < m.N; j++ {
		jm.Cols = append(jm.Cols,
			jade.NewArrayFrom(t, append([]float64(nil), m.Cols[j]...), fmt.Sprintf("col%d", j)))
	}
	return jm
}

// FromJade reads the factored columns back after the runtime finished.
func FromJade(r *jade.Runtime, jm *JadeMatrix) *Matrix {
	m := &Matrix{
		N:      jm.N,
		ColPtr: append([]int32(nil), jm.ColPtrLocal...),
		RowIdx: append([]int32(nil), jm.RowIdxLocal...),
	}
	for j := 0; j < jm.N; j++ {
		m.Cols = append(m.Cols, append([]float64(nil), jade.Final(r, jm.Cols[j])...))
	}
	return m
}

func (jm *JadeMatrix) colRowsLocal(j int) []int32 {
	return jm.RowIdxLocal[jm.ColPtrLocal[j]:jm.ColPtrLocal[j+1]]
}

// GraphRuntime returns the runtime to read a program's dynamic task graph
// from (Figure 4): traced, with one processor — which the main program
// keeps until it has issued every task — and no inlining. The engine
// reports a dependence only on a task that is still queued, so on any other
// runtime the graph depends on how far the earlier tasks got; here none has
// started, and the graph is a function of the program alone.
func GraphRuntime() *jade.Runtime {
	return jade.NewSMP(jade.SMPConfig{Procs: 1, MaxLiveTasks: 1 << 30, Trace: true})
}

// Factor is the paper's Figure 6 translated to the Go API: for each column
// an InternalUpdate task (rd_wr on the column, rd on the structure), then
// one ExternalUpdate task per column in its structure (rd_wr on the target
// column, rd on the source column and structure). The Jade implementation
// discovers all concurrency from these declarations.
func (jm *JadeMatrix) Factor(t *jade.Task) {
	internal, external := jm.flops()
	for i := 0; i < jm.N; i++ {
		i := i
		t.WithOnlyOpts(
			jade.TaskOptions{Label: fmt.Sprintf("internal(%d)", i), Cost: internal[i]},
			func(s *jade.Spec) {
				s.RdWr(jm.Cols[i])
				s.Rd(jm.ColPtr)
				s.Rd(jm.RowIdx)
			},
			func(t *jade.Task) {
				jm.internalUpdateTask(t, i)
			})
		rows := jm.colRowsLocal(i)
		for k := 1; k < len(rows); k++ {
			j, cost := int(rows[k]), external[i][k]
			t.WithOnlyOpts(
				jade.TaskOptions{Label: fmt.Sprintf("external(%d,%d)", i, j), Cost: cost},
				func(s *jade.Spec) {
					s.RdWr(jm.Cols[j])
					s.Rd(jm.Cols[i])
					s.Rd(jm.ColPtr)
					s.Rd(jm.RowIdx)
				},
				func(t *jade.Task) {
					jm.externalUpdateTask(t, i, j)
				})
		}
	}
}

func (jm *JadeMatrix) flops() ([]float64, [][]float64) {
	internal := make([]float64, jm.N)
	external := make([][]float64, jm.N)
	for i := 0; i < jm.N; i++ {
		rows := jm.colRowsLocal(i)
		internal[i] = jm.WorkPerFlop * float64(len(rows)+10)
		external[i] = make([]float64, len(rows))
		for k := 1; k < len(rows); k++ {
			external[i][k] = jm.WorkPerFlop * float64(2*(len(rows)-k)+10)
		}
	}
	return internal, external
}

// internalUpdateTask is the body of an InternalUpdate task.
func (jm *JadeMatrix) internalUpdateTask(t *jade.Task, i int) {
	cp := jm.ColPtr.Read(t)
	_ = jm.RowIdx.Read(t)
	col := jm.Cols[i].ReadWrite(t)
	if int(cp[i+1]-cp[i]) != len(col) {
		panic("cholesky: structure/value mismatch")
	}
	internalUpdate(col)
}

// externalUpdateTask is the body of an ExternalUpdate task from column i to
// column j.
func (jm *JadeMatrix) externalUpdateTask(t *jade.Task, i, j int) {
	cp := jm.ColPtr.Read(t)
	ri := jm.RowIdx.Read(t)
	rowsI := ri[cp[i]:cp[i+1]]
	rowsJ := ri[cp[j]:cp[j+1]]
	colI := jm.Cols[i].Read(t)
	colJ := jm.Cols[j].ReadWrite(t)
	externalUpdate(rowsI, colI, int32(j), rowsJ, colJ)
}

// ForwardSolve solves L·y = b as a single long-running task. With
// pipelined=true it is the paper's §4.2 back substitution: every column
// read is declared deferred (df_rd), converted just before use and
// retracted just after, so the solve overlaps the factorization that
// produces the columns. With pipelined=false it is the §4.1 barrier
// version — immediate rd on every column — which cannot start until the
// entire factorization finishes (ablation A4).
func (jm *JadeMatrix) ForwardSolve(t *jade.Task, x *jade.Array[float64], pipelined bool) {
	solveCost := jm.WorkPerFlop * float64(2*len(jm.RowIdxLocal)+10*jm.N)
	t.WithOnlyOpts(
		jade.TaskOptions{Label: "backsubst", Cost: 0},
		func(s *jade.Spec) {
			s.RdWr(x)
			s.Rd(jm.ColPtr)
			s.Rd(jm.RowIdx)
			for i := 0; i < jm.N; i++ {
				if pipelined {
					s.DfRd(jm.Cols[i])
				} else {
					s.Rd(jm.Cols[i])
				}
			}
		},
		func(t *jade.Task) {
			cp := jm.ColPtr.Read(t)
			ri := jm.RowIdx.Read(t)
			y := x.ReadWrite(t)
			perCol := solveCost / float64(jm.N)
			for j := 0; j < jm.N; j++ {
				if pipelined {
					t.WithCont(func(c *jade.Cont) { c.Rd(jm.Cols[j]) })
				}
				col := jm.Cols[j].Read(t)
				rows := ri[cp[j]:cp[j+1]]
				y[j] /= col[0]
				for k := 1; k < len(rows); k++ {
					y[rows[k]] -= col[k] * y[j]
				}
				t.Charge(perCol)
				if pipelined {
					jm.Cols[j].Release(t)
					t.WithCont(func(c *jade.Cont) { c.NoRd(jm.Cols[j]) })
				}
			}
		})
}
