package experiments

import (
	"fmt"
	"reflect"
	"sync"

	"repro/internal/apps/cholesky"
	"repro/jade"
)

// L2Elastic runs sparse Cholesky on the live runtime while the machine
// set churns: one worker is declared dead mid-run (its session fenced,
// its in-flight tasks re-executed, its directory entries rebuilt) and
// two fresh workers join and absorb load. The factorization must still
// be bit-identical to the serial oracle on both transports — the
// paper's determinism guarantee holding across failures and elastic
// membership, which is strictly beyond the paper's fail-free model.
func L2Elastic(grid, workers int) (*Table, error) {
	if grid == 0 {
		grid = 16
	}
	if workers == 0 {
		workers = 3
	}
	m := cholesky.Symbolic(cholesky.GridLaplacian(grid))
	oracle := m.Clone()
	cholesky.FactorSerial(oracle)

	tb := &Table{
		ID: "L2",
		Title: fmt.Sprintf("elastic fault tolerance: Cholesky %dx%d grid, %d workers, 1 killed + 2 joining",
			grid, grid, workers),
		Columns: []string{"transport", "crashes", "tasks re-exec",
			"objects rebuilt", "joined", "tasks run"},
	}
	for _, tr := range []string{"inproc", "tcp"} {
		// Membership events fire at fixed retirement counts and are applied
		// right there, on the protocol loop that retired the task, so the
		// schedule hits the same logical point in the task stream on every
		// run and cannot lose a race with the program's last task.
		var r *jade.Runtime
		var evMu sync.Mutex
		var evErr error
		fired := map[int]bool{}
		apply := func(i int, step func() error) {
			if fired[i] {
				return
			}
			fired[i] = true
			if err := step(); err != nil && evErr == nil {
				evErr = err
			}
		}
		cfg := jade.LiveConfig{
			Workers:   workers,
			Transport: tr,
			Elastic:   true,
			OnTaskDone: func(done int) {
				evMu.Lock()
				defer evMu.Unlock()
				if done >= 5 {
					apply(0, func() error { return r.KillWorker(1) })
				}
				if done >= 12 {
					apply(1, func() error { return r.JoinWorkers(2) })
				}
			},
		}
		r, err := jade.NewLive(cfg)
		if err != nil {
			return nil, fmt.Errorf("L2 %s: %w", tr, err)
		}
		var jm *cholesky.JadeMatrix
		err = r.Run(func(t *jade.Task) {
			jm = cholesky.ToJade(t, m, 0)
			jm.Factor(t)
		})
		if err != nil {
			return nil, fmt.Errorf("L2 %s: %w", tr, err)
		}
		if evErr != nil {
			return nil, fmt.Errorf("L2 %s: membership event: %w", tr, evErr)
		}
		got := cholesky.FromJade(r, jm)
		if !reflect.DeepEqual(got.Cols, oracle.Cols) {
			return nil, fmt.Errorf("L2 %s: factorization differs from the serial oracle after crash + joins", tr)
		}
		rep := r.Report()
		f := rep.Fault
		if f.CrashesInjected != 1 || f.CrashesDetected != 1 {
			return nil, fmt.Errorf("L2 %s: crash counters = (%d injected, %d detected), want (1, 1)",
				tr, f.CrashesInjected, f.CrashesDetected)
		}
		if f.WorkersJoined != 2 {
			return nil, fmt.Errorf("L2 %s: WorkersJoined = %d, want 2", tr, f.WorkersJoined)
		}
		if f.TasksReplayed != 0 {
			return nil, fmt.Errorf("L2 %s: %d tasks replayed; the coordinator's cache should have made that unnecessary", tr, f.TasksReplayed)
		}
		tb.AddRow(tr, f.CrashesDetected, f.TasksReexecuted,
			f.ObjectsRebuilt, f.WorkersJoined, rep.Tasks.Run)
	}
	tb.Notes = append(tb.Notes,
		"the kill fences the victim's session (late frames are dropped), re-executes its in-flight tasks and takes over its directory entries from the coordinator's cache, which holds every committed write",
		"joins are admitted mid-run and the placer immediately rebalances onto the new capacity",
		"results are bit-identical to the serial oracle on both transports — determinism survives the churn")
	return tb, nil
}
