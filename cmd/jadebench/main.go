// Command jadebench regenerates every evaluation artifact of the paper:
//
//	jadebench                  # run everything (full problem sizes)
//	jadebench -list            # enumerate the experiments
//	jadebench -exp f9,f10      # just the LWS running-time/speedup curves
//	jadebench -exp f4 -dot     # Figure 4 task graph, with DOT output
//	jadebench -exp f1          # fault injection + deterministic recovery
//	jadebench -quick           # reduced problem sizes (seconds, not minutes)
//	jadebench -csv             # also print tables as CSV
//
// Observability exports (from a run's always-on event ring):
//
//	jadebench -exp l1 -trace-out t.json    # Perfetto trace of L1's inproc round
//	                                       # (open in https://ui.perfetto.dev)
//	jadebench -exp f7 -trace-out f7.json   # the simulated Figure 7 run
//	jadebench -exp l1 -flame-out f.txt     # flamegraph collapsed stacks
//
// It prints the paper's figures and tables, and no live run's output holds
// a number derived from time: performance numbers come from the benchmark
// instead (bench/README.md).
//
// Experiments (see DESIGN.md §3 and §4.10): run jadebench -list.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/apps/water"
	"repro/internal/experiments"
	"repro/jade"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command-line flags.
type options struct {
	exp                string
	list, quick        bool
	dot, csv           bool
	narr, gantt        bool
	waterSrc           string
	profText           bool
	traceOut, flameOut string
	disabled           []jade.Feature // parsed -disable
}

// experiment is one row of the catalog: -list prints id and desc, -exp
// selects by id, and a run without -exp executes every row in order.
type experiment struct {
	id, desc string
	run      func() error
}

// run is main without the process exit: 0 on success, 1 when an
// experiment fails, 2 on a usage error (bad flag, unknown -exp id).
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("jadebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.exp, "exp", "all", "comma-separated experiment ids (see -list) or 'all'")
	fs.BoolVar(&o.list, "list", false, "list experiment ids with descriptions and exit")
	fs.BoolVar(&o.quick, "quick", false, "reduced problem sizes")
	fs.BoolVar(&o.dot, "dot", false, "print the Figure 4 task graph in DOT format")
	fs.BoolVar(&o.csv, "csv", false, "also print tables as CSV")
	fs.BoolVar(&o.narr, "narrative", false, "print the Figure 7 event narrative")
	fs.BoolVar(&o.gantt, "gantt", false, "print a per-machine Gantt timeline for Figure 7")
	fs.StringVar(&o.waterSrc, "watersrc", "internal/apps/water/water.go", "path to the water source for the T1 construct count")
	fs.BoolVar(&o.profText, "profile", false, "print each S1 point's full profile (phases, utilization, critical path, hotspots)")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -exp f7 or l1: write that run as Perfetto trace JSON to this file")
	fs.StringVar(&o.flameOut, "flame-out", "", "with -exp f7 or l1: write that run as flamegraph collapsed stacks to this file")
	disable := fs.String("disable", "", "comma-separated runtime features to turn off in S1 (prefetch,locality,delta)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *disable != "" {
		for _, s := range strings.Split(*disable, ",") {
			f, err := jade.ParseFeature(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(stderr, "jadebench: -disable: %v\n", err)
				return 2
			}
			o.disabled = append(o.disabled, f)
		}
	}

	table := catalog(&o, stdout, stderr)
	if o.list {
		for _, e := range table {
			fmt.Fprintf(stdout, "  %-4s %s\n", e.id, e.desc)
		}
		return 0
	}

	known := map[string]bool{"all": true}
	for _, e := range table {
		known[e.id] = true
	}
	want := map[string]bool{}
	for _, id := range strings.Split(o.exp, ",") {
		id = strings.ToLower(strings.TrimSpace(id))
		if !known[id] {
			fmt.Fprintf(stderr, "jadebench: -exp: unknown experiment %q (see -list)\n", id)
			return 2
		}
		want[id] = true
	}
	for _, e := range table {
		if !want["all"] && !want[e.id] {
			continue
		}
		if err := e.run(); err != nil {
			fmt.Fprintf(stderr, "jadebench: %s: %v\n", e.id, err)
			return 1
		}
	}
	return 0
}

// catalog builds the experiment table, in the order jadebench runs it.
func catalog(o *options, stdout, stderr io.Writer) []experiment {
	show := func(tb *experiments.Table) {
		fmt.Fprintln(stdout, tb)
		if o.csv {
			fmt.Fprintln(stdout, tb.CSV())
		}
	}
	// sized picks the full or the -quick problem size.
	sized := func(full, quick int) int {
		if o.quick {
			return quick
		}
		return full
	}
	// tabled adapts an experiment that yields one table.
	tabled := func(f func() (*experiments.Table, error)) func() error {
		return func() error {
			tb, err := f()
			if err != nil {
				return err
			}
			show(tb)
			return nil
		}
	}
	// export writes a finished run's -trace-out / -flame-out files. When
	// several exporting experiments are selected, the last one's files win.
	export := func(r *jade.Runtime) error {
		for _, out := range []struct {
			path, what string
			write      func(io.Writer) error
		}{
			{o.traceOut, "Perfetto trace", func(w io.Writer) error { return r.ExportTrace(w, jade.ObsOptions{}) }},
			{o.flameOut, "flame stacks", r.ExportFlame},
		} {
			if out.path == "" {
				continue
			}
			var buf bytes.Buffer
			if err := out.write(&buf); err != nil {
				return err
			}
			if err := os.WriteFile(out.path, buf.Bytes(), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s to %s\n\n", out.what, out.path)
		}
		return nil
	}
	// Figures 9 and 10 are two views of one sweep; whichever is selected
	// first runs it.
	var f9, f10 *experiments.Table
	waterSweep := func() error {
		if f9 != nil {
			return nil
		}
		sweep := experiments.WaterSweep{}
		if o.quick {
			sweep = experiments.WaterSweep{Molecules: 729, Steps: 1, MaxMachines: 16}
		}
		var err error
		f9, f10, err = experiments.Fig9and10(sweep)
		return err
	}

	return []experiment{
		{"f4", "Figure 4: sparse Cholesky dynamic task graph", func() error {
			tb, dotStr, err := experiments.Fig4()
			if err != nil {
				return err
			}
			show(tb)
			if o.dot {
				fmt.Fprintln(stdout, dotStr)
			}
			return nil
		}},
		{"f7", "Figure 7: message-passing execution narrative (iPSC/860)", func() error {
			res, err := experiments.Fig7()
			if err != nil {
				return err
			}
			show(res.Table)
			if o.narr {
				for _, l := range res.Narrative {
					fmt.Fprintln(stdout, l)
				}
				fmt.Fprintln(stdout)
			}
			if o.gantt {
				fmt.Fprintln(stdout, res.Gantt)
			}
			return export(res.Run)
		}},
		{"f9", "Figure 9: Water running time vs machines", func() error {
			if err := waterSweep(); err != nil {
				return err
			}
			show(f9)
			return nil
		}},
		{"f10", "Figure 10: Water speedup vs machines", func() error {
			if err := waterSweep(); err != nil {
				return err
			}
			show(f10)
			return nil
		}},
		{"s1", "speedup vs critical-path ceiling on modeled DASH (profiler validation)", func() error {
			cfg := experiments.S1Config{Disable: o.disabled}
			if o.quick {
				cfg.Grid, cfg.Molecules, cfg.Steps = 8, 64, 1
			}
			res, err := experiments.S1Speedup(cfg)
			if err != nil {
				return err
			}
			show(res.Table)
			if o.profText {
				for _, pt := range res.Points {
					fmt.Fprintf(stdout, "-- %s on DASH-%d --\n%s\n", pt.App, pt.Procs, pt.Profile.Text())
				}
			}
			return nil
		}},
		{"t1", "Table: Jade construct counts in the Water source (§7.3)", func() error {
			tb, err := experiments.T1Constructs(o.waterSrc)
			if err != nil {
				// The count needs the source tree; elsewhere it is skipped.
				fmt.Fprintf(stderr, "jadebench: t1 skipped (%v)\n", err)
				return nil
			}
			show(tb)
			return nil
		}},
		{"c1", "comparison: Jade vs DSM-style execution (§6)", tabled(func() (*experiments.Table, error) {
			return experiments.C1DSM(sized(10, 6))
		})},
		{"c2", "comparison: Jade vs tuple-space (Linda-style) Water (§6)", tabled(func() (*experiments.Table, error) {
			return experiments.C2Linda(water.Config{N: sized(216, 60), Steps: 2, Tasks: 4, Seed: 5})
		})},
		{"a1", "ablation: locality scheduling heuristic on/off", tabled(func() (*experiments.Table, error) {
			return experiments.A1Locality(sized(12, 8))
		})},
		{"a2", "ablation: prefetch / latency hiding on/off", tabled(experiments.A2Prefetch)},
		{"a3", "ablation: live-task throttle bounds", tabled(func() (*experiments.Table, error) {
			return experiments.A3Throttle(sized(10, 8))
		})},
		{"a4", "ablation: pipelined HRV video with heterogeneity machinery", tabled(func() (*experiments.Table, error) {
			return experiments.A4Pipeline(sized(8, 6))
		})},
		{"d1", "delta transfers + dispatch coalescing vs full images (§5)", tabled(func() (*experiments.Table, error) {
			return experiments.D1Delta(sized(16, 12))
		})},
		{"f1", "fault injection: crashes, loss, duplication + deterministic recovery (§4.10)", tabled(func() (*experiments.Table, error) {
			return experiments.F1Fault(sized(12, 8))
		})},
		{"h1", "HRV video pipeline across heterogeneous machines (§7.2)", tabled(func() (*experiments.Table, error) {
			return experiments.H1Video(sized(32, 12))
		})},
		{"m1", "parallel make (pmake) task graph", tabled(func() (*experiments.Table, error) {
			return experiments.M1Make(sized(24, 12))
		})},
		{"g1", "granularity: Cholesky column vs supernode tasks", tabled(func() (*experiments.Table, error) {
			return experiments.G1Grain(sized(12, 8))
		})},
		{"g2", "commuting accumulation (Acc) semantics", tabled(experiments.G2Commute)},
		{"g3", "granularity: Water task-count sweep", tabled(experiments.WaterGrainSweep)},
		{"k1", "Barnes-Hut N-body on the simulated platforms", tabled(experiments.K1BarnesHut)},
		{"l1", "live execution: Cholesky over in-process and TCP worker endpoints", func() error {
			tb, r, err := experiments.L1Live(sized(16, 8), 4)
			if err != nil {
				return err
			}
			show(tb)
			return export(r)
		}},
		{"l2", "elastic fault tolerance: live Cholesky with a mid-run kill + joins", tabled(func() (*experiments.Table, error) {
			return experiments.L2Elastic(sized(16, 8), 3)
		})},
	}
}
