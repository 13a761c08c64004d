// Command jadegraph emits the dynamic task graph of a sparse Cholesky
// factorization in Graphviz DOT format — the paper's Figure 4.
//
//	jadegraph              # the paper's Figure-1-style 5x5 matrix
//	jadegraph -grid 4      # a 4x4 grid Laplacian instead
//	jadegraph -solve       # append the pipelined back-substitution task
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps/cholesky"
	"repro/jade"
)

func main() {
	var (
		grid  = flag.Int("grid", 0, "use a KxK grid Laplacian (0 = the paper's Figure-1 matrix)")
		solve = flag.Bool("solve", false, "include the pipelined back-substitution task")
	)
	flag.Parse()

	var m *cholesky.Matrix
	if *grid > 0 {
		m = cholesky.Symbolic(cholesky.GridLaplacian(*grid))
	} else {
		m = cholesky.Symbolic(cholesky.PaperMatrix())
	}
	r := cholesky.GraphRuntime()
	err := r.Run(func(t *jade.Task) {
		jm := cholesky.ToJade(t, m, 0)
		jm.Factor(t)
		if *solve {
			x := jade.NewArray[float64](t, m.N, "x")
			jm.ForwardSolve(t, x, true)
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "jadegraph: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(r.TaskGraphDOT("sparse-cholesky"))
}
