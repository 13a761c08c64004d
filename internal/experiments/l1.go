package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/apps/cholesky"
	"repro/jade"
)

// L1Live runs sparse Cholesky on the live message-passing runtime — real
// worker endpoints exchanging protocol frames, not the simulator — over both
// transports: in-process goroutine pipes and TCP loopback sockets (the full
// wire path: framing, heartbeats, sequence numbers). The factorization must
// be bit-identical to the serial oracle on both, and the report must show
// the traffic that actually crossed the transport. It also returns the
// finished inproc runtime, whose always-on event ring the trace exports read.
func L1Live(grid, workers int) (*Table, *jade.Runtime, error) {
	if grid == 0 {
		grid = 12
	}
	if workers == 0 {
		workers = 4
	}
	m := cholesky.Symbolic(cholesky.GridLaplacian(grid))
	oracle := m.Clone()
	cholesky.FactorSerial(oracle)

	tb := &Table{
		ID:    "L1",
		Title: fmt.Sprintf("live execution: Cholesky %dx%d grid on %d workers (real message passing)", grid, grid, workers),
		Columns: []string{"transport", "workers", "messages", "bytes moved",
			"delta xfers", "bytes saved", "tasks run"},
	}
	var inproc *jade.Runtime
	for _, tr := range []string{"inproc", "tcp"} {
		r, err := jade.NewLive(jade.LiveConfig{Workers: workers, Transport: tr})
		if err != nil {
			return nil, nil, fmt.Errorf("L1 %s: %w", tr, err)
		}
		var jm *cholesky.JadeMatrix
		err = r.Run(func(t *jade.Task) {
			jm = cholesky.ToJade(t, m, 0)
			jm.Factor(t)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("L1 %s: %w", tr, err)
		}
		got := cholesky.FromJade(r, jm)
		if !reflect.DeepEqual(got.Cols, oracle.Cols) {
			return nil, nil, fmt.Errorf("L1 %s: factorization differs from the serial oracle", tr)
		}
		rep := r.Report()
		if rep.Net.Messages == 0 || rep.Net.Bytes == 0 {
			return nil, nil, fmt.Errorf("L1 %s: no transport traffic recorded", tr)
		}
		tb.AddRow(tr, workers, rep.Net.Messages, rep.Net.Bytes,
			rep.Delta.DeltaTransfers, rep.Delta.SavedBytes, rep.Tasks.Run)
		if tr == "inproc" {
			inproc = r
		}
	}
	tb.Notes = append(tb.Notes,
		"message and byte counts are frames that crossed the transport; wall-clock throughput is measured by bench/ (chol_inproc, chol_tcp)",
		"both transports run the same directory protocol as the simulated dist executor; tcp adds framing, batching and heartbeats")
	return tb, inproc, nil
}
