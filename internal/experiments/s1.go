package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/water"
	"repro/jade"
)

// S1Config parameterizes the S1 speedup sweep.
type S1Config struct {
	// Grid is the Cholesky grid Laplacian size (0 = 16).
	Grid int
	// Molecules is the water problem size (0 = 216).
	Molecules int
	// Steps is the water timestep count (0 = 2).
	Steps int
	// Disable lists runtime features to turn off for every point (jadebench
	// -disable).
	Disable []jade.Feature
}

// WithDefaults fills zero fields.
func (c S1Config) WithDefaults() S1Config {
	if c.Grid == 0 {
		c.Grid = 16
	}
	if c.Molecules == 0 {
		c.Molecules = 216
	}
	if c.Steps == 0 {
		c.Steps = 2
	}
	return c
}

// S1Point is one (application, processor count) measurement with its full
// profile, for jadebench's -profile rendering.
type S1Point struct {
	App      string
	Procs    int
	Makespan time.Duration
	Profile  *jade.Profile
}

// S1Result is the sweep table plus the per-point profiles.
type S1Result struct {
	Table  *Table
	Points []S1Point
}

// s1Procs is the modeled DASH sweep of the paper's Figure 9 x-axis.
var s1Procs = []int{1, 4, 16, 32}

// S1Speedup runs Cholesky and water on modeled DASH at 1/4/16/32 processors
// and reports, per point, the makespan, speedup, average utilization, the
// critical path T∞ and the speedup ceiling T₁/T∞ — the Figure-9 curves
// annotated with the profiler's explanation of where they flatten.
//
// Two invariants are checked on every point and returned as errors when
// violated (they are the critical-path construction's proof obligations):
// the measured makespan is never below T∞, and the 1-processor Cholesky
// makespan is within 1% of T₁.
func S1Speedup(cfg S1Config) (*S1Result, error) {
	cfg = cfg.WithDefaults()
	tb := &Table{
		ID: "S1",
		Title: fmt.Sprintf("speedup vs critical-path ceiling on modeled DASH (Cholesky %dx%d grid, water n=%d)",
			cfg.Grid, cfg.Grid, cfg.Molecules),
		Columns: []string{"app", "procs", "makespan", "speedup", "avg util", "Tinf", "ceiling T1/Tinf"},
	}
	res := &S1Result{Table: tb}

	m := cholesky.Symbolic(cholesky.GridLaplacian(cfg.Grid))
	apps := []struct {
		name string
		run  func(r *jade.Runtime, procs int) error
	}{
		{"cholesky", func(r *jade.Runtime, procs int) error {
			return r.Run(func(t *jade.Task) {
				cholesky.ToJade(t, m, 2e-5).Factor(t)
			})
		}},
		{"water", func(r *jade.Runtime, procs int) error {
			_, err := water.RunJade(r, water.Config{
				N: cfg.Molecules, Steps: cfg.Steps, Tasks: procs, Seed: 1992, WorkPerFlop: 1e-7,
			})
			return err
		}},
	}

	for _, app := range apps {
		var t1Span time.Duration
		for _, procs := range s1Procs {
			r, err := jade.NewSimulated(jade.SimConfig{
				Platform: jade.DASH(procs), Trace: true, MaxLiveTasks: 4096,
				Disable: cfg.Disable,
			})
			if err != nil {
				return nil, err
			}
			if err := app.run(r, procs); err != nil {
				return nil, fmt.Errorf("S1 %s p=%d: %w", app.name, procs, err)
			}
			rep := r.Report()
			p := rep.Profile
			if p == nil || p.Tasks == 0 {
				return nil, fmt.Errorf("S1 %s p=%d: empty profile", app.name, procs)
			}
			if rep.Makespan < p.TInf {
				return nil, fmt.Errorf("S1 %s p=%d: makespan %v below critical path T∞ %v",
					app.name, procs, rep.Makespan, p.TInf)
			}
			if procs == 1 {
				t1Span = rep.Makespan
				if app.name == "cholesky" {
					diff := rep.Makespan - p.T1
					if diff < 0 {
						diff = -diff
					}
					if diff > rep.Makespan/100 {
						return nil, fmt.Errorf("S1 cholesky p=1: makespan %v not within 1%% of T1 %v",
							rep.Makespan, p.T1)
					}
				}
			}
			var busy time.Duration
			for _, mu := range p.Machines {
				busy += mu.Busy
			}
			util := 0.0
			if rep.Makespan > 0 {
				util = float64(busy) / float64(rep.Makespan) / float64(procs)
			}
			tb.AddRow(app.name, procs, rep.Makespan,
				fmt.Sprintf("%.2f", t1Span.Seconds()/rep.Makespan.Seconds()),
				fmt.Sprintf("%.1f%%", 100*util),
				p.TInf, fmt.Sprintf("%.2f", p.Ceiling))
			res.Points = append(res.Points, S1Point{
				App: app.name, Procs: procs, Makespan: rep.Makespan, Profile: p,
			})
		}
	}
	tb.Notes = append(tb.Notes,
		"T∞ is the critical-path lower bound extracted from the dynamic task graph: no schedule on any number of "+
			"processors finishes before it, so speedup can never exceed T1/T∞; where the measured curve flattens "+
			"against the ceiling, the -profile breakdown names the chain of tasks and objects responsible",
		"on 1 processor the makespan matches the total work T1 (within 1%), validating the profiler's task weights")
	return res, nil
}
