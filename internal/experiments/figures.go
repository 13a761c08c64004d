package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/water"
	"repro/internal/trace"
	"repro/jade"
)

// Fig4 reproduces the paper's Figure 4: the dynamic task graph of the
// sparse Cholesky factorization on the Figure-1-style matrix. It returns a
// table of the task dependences plus the Graphviz DOT rendering.
func Fig4() (*Table, string, error) {
	m := cholesky.Symbolic(cholesky.PaperMatrix())
	r := cholesky.GraphRuntime()
	var jm *cholesky.JadeMatrix
	err := r.Run(func(t *jade.Task) {
		jm = cholesky.ToJade(t, m, 0)
		jm.Factor(t)
	})
	if err != nil {
		return nil, "", err
	}
	labels := map[uint64]string{}
	for _, ev := range r.TraceLog().Filter(trace.TaskCreated) {
		labels[ev.Task] = ev.Label
	}
	tb := &Table{
		ID:      "F4",
		Title:   "dynamic task graph, sparse Cholesky (paper Fig. 4)",
		Columns: []string{"task", "depends on"},
	}
	deps := map[string][]string{}
	seen := map[string]bool{}
	for _, ev := range r.TraceLog().Filter(trace.Depend) {
		from, to := labels[ev.Task], labels[ev.Other]
		key := to + "<-" + from
		if !seen[key] {
			seen[key] = true
			deps[to] = append(deps[to], from)
		}
	}
	var tasks []string
	for _, ev := range r.TraceLog().Filter(trace.TaskCreated) {
		tasks = append(tasks, ev.Label)
	}
	for _, task := range tasks {
		tb.AddRow(task, strings.Join(deps[task], ", "))
	}
	tb.Notes = append(tb.Notes,
		"every external(i,j) depends on internal(i) and the previous writer of column j, as in the paper's figure")
	return tb, r.TaskGraphDOT("fig4-sparse-cholesky"), nil
}

// Fig7Result bundles the Figure 7 reproduction's renderings.
type Fig7Result struct {
	// Table summarizes the run.
	Table *Table
	// Narrative is the chronological event log (the paper's panels a-f).
	Narrative []string
	// Gantt is a per-machine text timeline.
	Gantt string
	// Run is the finished simulated runtime, for trace export.
	Run *jade.Runtime
}

// Fig7 reproduces the paper's Figure 7: the execution of the factorization
// on two message-passing machines, showing task movement, object migration
// on write, replication on read, and latency hiding.
func Fig7() (*Fig7Result, error) {
	m := cholesky.Symbolic(cholesky.PaperMatrix())
	r, err := jade.NewSimulated(jade.SimConfig{Platform: jade.IPSC860(2), Trace: true})
	if err != nil {
		return nil, err
	}
	var jm *cholesky.JadeMatrix
	err = r.Run(func(t *jade.Task) {
		jm = cholesky.ToJade(t, m, 1e-4)
		jm.Factor(t)
	})
	if err != nil {
		return nil, err
	}
	rep := r.Report()
	tb := &Table{
		ID:      "F7",
		Title:   "execution on two message-passing machines (paper Fig. 7)",
		Columns: []string{"metric", "value"},
	}
	tb.AddRow("tasks run", rep.Tasks.Run)
	tb.AddRow("messages", rep.Net.Messages)
	tb.AddRow("objects moved (write migration)", len(r.TraceLog().Filter(trace.ObjectMoved)))
	tb.AddRow("objects copied (read replication)", len(r.TraceLog().Filter(trace.ObjectCopied)))
	tb.AddRow("copies invalidated", len(r.TraceLog().Filter(trace.ObjectInvalidated)))
	tb.AddRow("makespan", rep.Makespan)
	tb.Notes = append(tb.Notes,
		"the narrative below corresponds to the paper's panels (a)-(f): the main task runs on machine 0, "+
			"tasks are dispatched to the idle machine, written columns migrate, read-only structure replicates, "+
			"conflicting updates are suspended until the internal update completes, and prefetch overlaps fetches with execution")
	var lines []string
	for _, ev := range r.TraceLog().Events() {
		switch ev.Kind {
		case trace.TaskAssigned, trace.TaskStarted, trace.TaskCompleted,
			trace.ObjectMoved, trace.ObjectCopied, trace.ObjectInvalidated:
			lines = append(lines, ev.String())
		}
	}
	return &Fig7Result{
		Table:     tb,
		Narrative: lines,
		Gantt:     trace.Gantt(r.TraceLog()),
		Run:       r,
	}, nil
}

// WaterSweep configures the Figures 9/10 reproduction.
type WaterSweep struct {
	// Molecules is the problem size (paper: 2197).
	Molecules int
	// Steps is the number of timesteps measured.
	Steps int
	// WorkPerFlop calibrates compute speed (1e-7 ≈ a 10 Mflop/s 1992 CPU).
	WorkPerFlop float64
	// MaxMachines caps the sweep (paper: DASH and iPSC to 32, Mica to 8).
	MaxMachines int
}

// WithDefaults fills zero fields with the paper's configuration.
func (w WaterSweep) WithDefaults() WaterSweep {
	if w.Molecules == 0 {
		w.Molecules = 2197
	}
	if w.Steps == 0 {
		w.Steps = 2
	}
	if w.WorkPerFlop == 0 {
		w.WorkPerFlop = 1e-7
	}
	if w.MaxMachines == 0 {
		w.MaxMachines = 32
	}
	return w
}

// platformsFor returns the three platform families of Figures 9/10.
func platformsFor(machines int) map[string]jade.Platform {
	return map[string]jade.Platform{
		"iPSC/860": jade.IPSC860(machines),
		"Mica":     jade.Mica(machines),
		"DASH":     jade.DASH(machines),
	}
}

// micaLimit is the largest Mica configuration (the paper's array was small).
const micaLimit = 8

// Fig9and10 reproduces the running-time and speedup curves of the LWS water
// simulation on the three platforms.
func Fig9and10(cfg WaterSweep) (*Table, *Table, error) {
	cfg = cfg.WithDefaults()
	var sizes []int
	for p := 1; p <= cfg.MaxMachines; p *= 2 {
		sizes = append(sizes, p)
	}
	names := []string{"iPSC/860", "Mica", "DASH"}
	times := map[string]map[int]float64{}
	for _, name := range names {
		times[name] = map[int]float64{}
	}
	for _, p := range sizes {
		for name, plat := range platformsFor(p) {
			if name == "Mica" && p > micaLimit {
				continue
			}
			r, err := jade.NewSimulated(jade.SimConfig{Platform: plat})
			if err != nil {
				return nil, nil, err
			}
			wcfg := water.Config{
				N: cfg.Molecules, Steps: cfg.Steps, Tasks: maxInt(p, 1),
				Seed: 1992, WorkPerFlop: cfg.WorkPerFlop,
			}
			if _, err := water.RunJade(r, wcfg); err != nil {
				return nil, nil, err
			}
			times[name][p] = r.Makespan().Seconds()
		}
	}
	f9 := &Table{
		ID:      "F9",
		Title:   fmt.Sprintf("LWS running times, %d molecules (paper Fig. 9)", cfg.Molecules),
		Columns: []string{"processors", "iPSC/860 (s)", "Mica (s)", "DASH (s)"},
	}
	f10 := &Table{
		ID:      "F10",
		Title:   "LWS speedups (paper Fig. 10)",
		Columns: []string{"processors", "iPSC/860", "Mica", "DASH"},
	}
	for _, p := range sizes {
		cell := func(name string) string {
			v, ok := times[name][p]
			if !ok {
				return "-"
			}
			return fmt.Sprintf("%.2f", v)
		}
		spd := func(name string) string {
			v, ok := times[name][p]
			if !ok {
				return "-"
			}
			return fmt.Sprintf("%.2f", times[name][1]/v)
		}
		f9.AddRow(p, cell("iPSC/860"), cell("Mica"), cell("DASH"))
		f10.AddRow(p, spd("iPSC/860"), spd("Mica"), spd("DASH"))
	}
	f9.Notes = append(f9.Notes,
		"shape target per the paper: DASH fastest and near-linear, iPSC/860 close behind, Mica slower and flattening as the shared Ethernet saturates")
	f10.Notes = append(f10.Notes,
		"speedups are against the same platform's 1-processor run, as in the paper")
	return f9, f10, nil
}

// peakLive computes the maximum number of simultaneously existing tasks
// from a trace (for the throttling ablation).
func peakLive(lg *trace.Log) int {
	type delta struct {
		at   int64
		d    int
		kind int
	}
	var ds []delta
	for _, ev := range lg.Events() {
		switch ev.Kind {
		case trace.TaskCreated:
			ds = append(ds, delta{int64(ev.At), +1, 0})
		case trace.TaskCompleted:
			ds = append(ds, delta{int64(ev.At), -1, 1})
		}
	}
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].at != ds[j].at {
			return ds[i].at < ds[j].at
		}
		return ds[i].kind > ds[j].kind // completions before creations at ties
	})
	live, peak := 0, 0
	for _, d := range ds {
		live += d.d
		if live > peak {
			peak = live
		}
	}
	return peak
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
