package experiments

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/apps/cholesky"
	"repro/jade"
)

// L3Point is one measured transport in the live throughput bench.
type L3Point struct {
	Transport      string
	Workers        int
	Grid           int
	Rounds         int
	BestWallNS     int64
	Tasks          int
	TasksPerSec    float64
	Frames         int
	FramesPerSec   float64
	Bytes          int64
	CoalescedDisp  int
	DeltaTransfers int
}

// L3Result carries the rendered table plus the raw points.
type L3Result struct {
	Table  *Table
	Points []L3Point
}

// L3Throughput measures the live executor's sustained wire-path
// throughput: the full Cholesky workload run end-to-end on real worker
// endpoints, best-of-N wall time per transport, reported as tasks/sec
// and frames/sec. This is the number the PR-7 wire-path work is judged
// by (frame batching, pooled buffers, dispatch coalescing, pipelined
// pulls): the coordinator's serial issue rate bounds the whole run, so
// anything that cheapens a frame shows up directly here. Every round
// re-checks bit-identity against the serial oracle — a fast wrong
// answer is a failure, not a result.
func L3Throughput(grid, workers, rounds int) (*L3Result, error) {
	if grid == 0 {
		grid = 16
	}
	if workers == 0 {
		workers = 4
	}
	if rounds == 0 {
		rounds = 5
	}
	m := cholesky.Symbolic(cholesky.GridLaplacian(grid))
	oracle := m.Clone()
	cholesky.FactorSerial(oracle)

	res := &L3Result{Table: &Table{
		ID:    "L3",
		Title: fmt.Sprintf("live throughput: Cholesky %dx%d grid on %d workers, best of %d", grid, grid, workers, rounds),
		Columns: []string{"transport", "wall time", "tasks/sec", "frames/sec",
			"frames", "bytes moved", "coalesced disp", "delta xfers"},
	}}
	for _, tr := range []string{"inproc", "tcp"} {
		var best *jade.Report
		var bestWall time.Duration
		for i := 0; i < rounds; i++ {
			r, err := jade.NewLive(jade.LiveConfig{Workers: workers, Transport: tr})
			if err != nil {
				return nil, fmt.Errorf("L3 %s: %w", tr, err)
			}
			var jm *cholesky.JadeMatrix
			start := time.Now()
			err = r.Run(func(t *jade.Task) {
				jm = cholesky.ToJade(t, m, 0)
				jm.Factor(t)
			})
			wall := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("L3 %s round %d: %w", tr, i, err)
			}
			got := cholesky.FromJade(r, jm)
			if !reflect.DeepEqual(got.Cols, oracle.Cols) {
				return nil, fmt.Errorf("L3 %s round %d: factorization differs from the serial oracle", tr, i)
			}
			rep := r.Report()
			if rep.Net.Messages == 0 {
				return nil, fmt.Errorf("L3 %s round %d: no transport traffic recorded", tr, i)
			}
			if best == nil || wall < bestWall {
				best, bestWall = &rep, wall
			}
		}
		secs := bestWall.Seconds()
		p := L3Point{
			Transport: tr, Workers: workers, Grid: grid, Rounds: rounds,
			BestWallNS:     bestWall.Nanoseconds(),
			Tasks:          best.Tasks.Run,
			TasksPerSec:    float64(best.Tasks.Run) / secs,
			Frames:         best.Net.Messages,
			FramesPerSec:   float64(best.Net.Messages) / secs,
			Bytes:          best.Net.Bytes,
			CoalescedDisp:  best.Delta.CoalescedDispatches,
			DeltaTransfers: best.Delta.DeltaTransfers,
		}
		res.Points = append(res.Points, p)
		res.Table.AddRow(tr, bestWall.Round(time.Microsecond),
			fmt.Sprintf("%.0f", p.TasksPerSec), fmt.Sprintf("%.0f", p.FramesPerSec),
			p.Frames, p.Bytes, p.CoalescedDisp, p.DeltaTransfers)
	}
	res.Table.Notes = append(res.Table.Notes,
		"best-of-N real wall time; every round is checked bit-identical against the serial oracle",
		"coalesced disp = dispatch frames that rode an object push instead of crossing the wire alone")
	return res, nil
}
