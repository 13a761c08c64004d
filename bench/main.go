// Command bench is the one benchmark of the Jade runtime: five workloads
// over the public jade API, six end-to-end metrics per workload, and the
// per-layer metrics that explain them, all taken from outside the program.
//
// Driver form (what BENCHMARK.json runs, through run.sh):
//
//	bench --workload chol_tcp --seed 7 --seconds 15 --trace 0
//
// prints the workload's end-to-end metrics (--trace 0) or its per-layer
// metrics (--trace 1) as one JSON object on the last line. With several
// workloads or -repeat it runs each workload and pass in a process of its
// own, one after the other, and prints what they printed. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads are the five inputs, in the order BENCHMARK.json lists them;
// sloMs is the latency limit slo_ok_frac judges each op against.
var workloads = []workload{
	{
		name: "chol_smp", sloMs: 50, transport: "",
		why:   "closed loop, 1 client: 12x12 grid-Laplacian Cholesky (fixed matrix, 1740 tiny tasks) on smp; only internal/core and exec/smp work, so it is the bypass workload for live and transport changes",
		setup: func(_ int64, sloMs float64) (instance, error) { return setupChol("smp", sloMs) },
	},
	{
		name: "chol_inproc", sloMs: 120, transport: "inproc",
		why:   "same program on live over inproc pipes: adds the coordinator protocol (directory, dispatch, coherence, trace ring, wire codec) on a near-free transport; the control for TCP changes",
		setup: func(_ int64, sloMs float64) (instance, error) { return setupChol("inproc", sloMs) },
	},
	{
		name: "chol_tcp", sloMs: 400, transport: "tcp",
		why:   "same program on live over TCP loopback: saturated back-to-back frames, so transport/tcp batching, syscalls and pooled buffers are about two-thirds of the per-task time",
		setup: func(_ int64, sloMs float64) (instance, error) { return setupChol("tcp", sloMs) },
	},
	{
		name: "tenant_mix", sloMs: 25, transport: "inproc",
		why:   "4 closed-loop clients, one per tenant, on one session service with MaxSessions 2; program order from --seed: session set-up/teardown, mux, admission and quotas dominate, dispatch is small",
		setup: setupTenant,
	},
	{
		name: "serve_tcp", sloMs: 20, transport: "tcp",
		why:   "SV1 request DAG on live+tcp, payloads from --seed: open loop at 400 rps, then a closed burst; isolated frames, every RTT shows in latency, so a coalescing change that hurts latency is caught",
		setup: setupServe,
	},
}

const (
	defaultSeed    = 1
	defaultSeconds = 15
	defaultRounds  = 10
	setupsPerRun   = 5    // set-ups per workload and run
	sloFloor       = 0.95 // a gated workload below this fails the run
)

type options struct {
	workloads []workload // one in a measuring process, several in the orchestrator
	seed      int64
	seconds   float64
	rounds    int
	setups    int // set-ups per workload in the timed pass; setup_s is their median
	trace     int // 0 = timed rounds only, 1 = traced pass only, -1 = both
	repeat    int
	out       string
	// pinned is the one CPU the gated passes run on, allCPUs the mask the
	// wide pass restores.
	pinned, allCPUs cpuMask
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all five, each in a process of its own)")
	o := options{setups: setupsPerRun}
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed of the tenant program order and the serve payload bytes")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "seconds of timed rounds per workload")
	fs.IntVar(&o.rounds, "rounds", defaultRounds, "timed rounds per workload (development only)")
	fs.IntVar(&o.trace, "trace", -1, "0 = timed rounds, end-to-end metrics; 1 = traced pass, per-layer metrics; default both")
	fs.IntVar(&o.repeat, "repeat", 1, "noise mode: run the selection N times and print each end-to-end pair's spread")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for the span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.workloads = workloads
	if *name != "" {
		o.workloads = nil
		for _, w := range workloads {
			if w.name == *name {
				o.workloads = []workload{w}
			}
		}
		if o.workloads == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
	}
	if o.seconds <= 0 || o.rounds < 1 || o.repeat < 1 || o.trace < -1 || o.trace > 1 {
		fmt.Fprintln(stderr, "bench: -seconds, -rounds and -repeat must be positive, -trace 0 or 1")
		return 2
	}

	if len(o.workloads) > 1 || o.repeat > 1 {
		return orchestrate(o, stdout, stderr)
	}

	// Gated numbers run on one P, on one CPU: at GOMAXPROCS=2 the live
	// executor loses runs to a known race, and an unpinned process's
	// threads wander between the host's CPUs, which alone moved chol_smp
	// between 75k and 112k tasks/s from one process to the next. At one P
	// on one CPU wall ≈ CPU. The wide pass lifts both.
	runtime.GOMAXPROCS(1)
	all, err := affinity()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	one, cpu := all.lastCPU()
	if err := setAffinity(one); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	o.pinned, o.allCPUs = one, all
	printHeader(stdout, o, cpu)

	res, err := measure(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if o.trace >= 0 {
		// The driver's contract: one JSON object on the last line.
		line, err := json.Marshal(res.driver)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !res.ok {
		return 1
	}
	return 0
}

// orchestrate runs every selected workload and pass in a measuring process
// of its own, -repeat times over, and relays their output. One process per
// workload keeps a workload's leftovers out of the next one's numbers: each
// TCP run leaks two goroutines, and with all five workloads in one process
// chol_smp fell from 90k to 60k tasks/s over five repeats.
func orchestrate(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	passes := []int{0, 1}
	if o.trace >= 0 {
		passes = []int{o.trace}
	}
	ok := true
	var series []map[string]map[string]float64 // per repeat: workload → end-to-end metrics
	for rep := 0; rep < o.repeat; rep++ {
		e2e := map[string]map[string]float64{}
		for _, w := range o.workloads {
			for _, trace := range passes {
				cmd := exec.Command(exe, "-workload", w.name, "-trace", strconv.Itoa(trace),
					"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
					"-rounds", strconv.Itoa(o.rounds), "-out", o.out)
				cmd.Stderr = stderr
				out, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s --trace %d: %v\n", w.name, trace, err)
					ok = false
				}
				// The child's last line is its result object; the rest is for reading.
				text, last := cutLastLine(out)
				stdout.Write(text)
				var res driverResult
				if trace == 0 && json.Unmarshal(last, &res) == nil {
					e2e[w.name] = map[string]float64{}
					for name, m := range res.Metrics {
						e2e[w.name][name] = m.Value
					}
				}
			}
		}
		series = append(series, e2e)
	}
	if o.repeat > 1 && o.trace != 1 {
		printNoise(stdout, o, series)
	}
	if !ok {
		return 1
	}
	return 0
}

// cutLastLine splits text into everything before its last line and that line.
func cutLastLine(text []byte) (before, last []byte) {
	text = bytes.TrimRight(text, "\n")
	i := bytes.LastIndexByte(text, '\n') // -1 when there is one line only
	return text[:i+1], text[i+1:]
}

// result is what one measuring process found.
type result struct {
	ok     bool
	e2e    map[string]float64 // nil when only the traced pass ran
	driver driverResult       // the last pass's, in the driver's shape
}

type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toDriver(specs []metricSpec, m map[string]float64, attempted, failed int) driverResult {
	d := driverResult{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]driverMetric{}}
	for _, s := range specs {
		d.Metrics[s.name] = driverMetric{Value: m[s.name], Unit: s.unit}
	}
	return d
}

// measure runs the selected passes over the one selected workload.
func measure(o options, out io.Writer) (result, error) {
	res := result{ok: true}
	w := o.workloads[0]
	if o.trace != 1 {
		t, err := runTimed(w, o)
		if err != nil {
			return res, fmt.Errorf("%s: %w", w.name, err)
		}
		res.e2e = t.metrics()
		att, failed := t.print(out, res.e2e)
		if miss := missing(endToEnd, res.e2e); len(miss) > 0 {
			fmt.Fprintf(out, "%s: FAIL: metrics missing or NaN: %s\n", w.name, strings.Join(miss, ", "))
			res.ok = false
		}
		if res.e2e["slo_ok_frac"] < sloFloor {
			fmt.Fprintf(out, "%s: FAIL: slo_ok_frac %.4f < %.2f\n", w.name, res.e2e["slo_ok_frac"], sloFloor)
			res.ok = false
		}
		res.driver = toDriver(endToEnd, res.e2e, att, failed)
	}
	if o.trace != 0 {
		units, err := unitLoops(time.Duration(o.seconds / 50 * float64(time.Second)))
		if err != nil {
			return res, fmt.Errorf("unit loops: %w", err)
		}
		t, err := runTraced(w, o, units)
		if err != nil {
			return res, fmt.Errorf("%s: %w", w.name, err)
		}
		t.print(out)
		if miss := missing(perLayer, t.layers); len(miss) > 0 {
			fmt.Fprintf(out, "%s: FAIL: metrics missing or NaN: %s\n", w.name, strings.Join(miss, ", "))
			res.ok = false
		}
		res.driver = toDriver(perLayer, t.layers, t.attempted, t.failed)
	}
	return res, nil
}

// timedRun is one workload's timed rounds: spans off, default ring.
type timedRun struct {
	w          workload
	setupS     []float64
	rounds     []roundResult
	allocBytes uint64
}

// runTimed sets the workload up o.setups times, keeps the last instance,
// and runs the timed rounds on it.
func runTimed(w workload, o options) (*timedRun, error) {
	t := &timedRun{w: w}
	var inst instance
	for i := 0; i < o.setups; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(o.seed, w.sloMs); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t.setupS = append(t.setupS, time.Since(start).Seconds())
	}
	defer inst.close()
	roundDur := time.Duration(o.seconds / float64(o.rounds) * float64(time.Second))
	var before, after runtime.MemStats
	for r := 0; r < o.rounds; r++ {
		runtime.GC() // every round starts from a collected heap
		runtime.ReadMemStats(&before)
		res := inst.round(roundDur, &pass{})
		runtime.ReadMemStats(&after)
		t.allocBytes += after.TotalAlloc - before.TotalAlloc
		t.rounds = append(t.rounds, res)
	}
	return t, nil
}

// metrics reduces the rounds to the end-to-end metrics. Each timing is
// computed per round and the best round is reported (highest throughput,
// lowest latency percentile): on a shared host interference only ever slows
// a round down, and over ten runs the median of rounds spread 7-18% where
// the best round spread 4-10% (README.md has the table).
func (t *timedRun) metrics() map[string]float64 {
	var rate, p50, p90 []float64
	var judged, within, tasks int
	for _, r := range t.rounds {
		judged += r.judged
		within += r.within
		tasks += r.allTasks
		if r.tasks > 0 {
			rate = append(rate, r.tasksPerS())
		}
		if len(r.okMs) > 0 {
			p50 = append(p50, percentile(r.okMs, 0.50))
			p90 = append(p90, percentile(r.okMs, 0.90))
		}
	}
	return map[string]float64{
		"setup_s":           median(t.setupS),
		"tasks_per_s":       highest(rate),
		"op_ms_p50":         lowest(p50),
		"op_ms_p90":         lowest(p90),
		"alloc_kb_per_task": float64(t.allocBytes) / 1024 / float64(tasks),
		"slo_ok_frac":       float64(within) / float64(judged),
	}
}

func (t *timedRun) print(out io.Writer, m map[string]float64) (attempted, failed int) {
	var judged, within, samples int
	for i, r := range t.rounds {
		fmt.Fprintf(out, "%s: round %d: %d ops, %.0f tasks/s, p50 %.3f ms, p90 %.3f ms\n",
			t.w.name, i+1, r.attempted, r.tasksPerS(), percentile(r.okMs, 0.5), percentile(r.okMs, 0.9))
		attempted += r.attempted
		failed += r.failed
		judged += r.judged
		within += r.within
		samples += len(r.okMs)
		for _, err := range r.errs {
			fmt.Fprintf(out, "%s: round %d: failed op: %v\n", t.w.name, i+1, err)
		}
	}
	fmt.Fprintf(out, "%s: timed: attempted %d / ok %d / failed %d / slo_missed %d (limit %g ms, %d ops judged)\n",
		t.w.name, attempted, attempted-failed, failed, judged-within, t.w.sloMs, judged)
	for _, s := range endToEnd {
		n := fmt.Sprintf("best of %d rounds, %d samples", len(t.rounds), samples)
		switch s.name {
		case "setup_s":
			n = fmt.Sprintf("median of %d set-ups", len(t.setupS))
		case "alloc_kb_per_task", "slo_ok_frac":
			n = fmt.Sprintf("over %d rounds", len(t.rounds))
		}
		fmt.Fprintf(out, "  %-12s %-20s %14.4f %-5s (%s)\n", t.w.name, s.name, m[s.name], s.unit, n)
	}
	return attempted, failed
}

// tracedRun is one workload's per-layer pass.
type tracedRun struct {
	w                 workload
	layers            map[string]float64
	attempted, failed int // of the pinned passes (all but the wide one)
	errs              []error
	wide              roundResult
	spans             string
}

// runTraced measures one workload's layers in five passes over one set-up
// instance: an untraced reference pass; a traced pass (Trace on, harness
// spans on), whose gap to the reference is the tracing overhead; a counters
// pass that also reads Report() after every op; a short untraced pass that
// reads Report() for the always-on ring's drops; and an ungated pass at
// GOMAXPROCS = nproc. The long passes take a fifth of -seconds each.
func runTraced(w workload, o options, units map[string]float64) (*tracedRun, error) {
	inst, err := w.setup(o.seed, w.sloMs)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	part := time.Duration(o.seconds / 5 * float64(time.Second))
	rec := newRecorder(1 << 18)

	ref := referencePass(inst, part)
	traced := inst.round(part, &pass{traced: true, rec: rec})
	counters := &pass{traced: true, report: true, rec: rec}
	countersRound := inst.round(part/2, counters)
	probe := &pass{report: true}
	probeRound := inst.round(part/4, probe)

	wide, err := widePass(inst, part, o)
	if err != nil {
		return nil, err
	}

	t := &tracedRun{w: w, wide: wide}
	for _, r := range []roundResult{ref.round, traced, countersRound, probeRound} {
		t.attempted += r.attempted
		t.failed += r.failed
		t.errs = append(t.errs, r.errs...)
	}
	t.layers = layerMetrics(w, units, ref, traced, rec, &counters.layers, &probe.layers, wide)
	t.spans = filepath.Join(o.out, "spans-"+w.name+".json")
	if err := rec.writeChrome(t.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return t, nil
}

// widePass runs one untraced round on every CPU at GOMAXPROCS = nproc, then
// confines the process to one P on one CPU again.
func widePass(inst instance, dur time.Duration, o options) (roundResult, error) {
	if o.allCPUs != nil {
		if err := setAffinity(o.allCPUs); err != nil {
			return roundResult{}, err
		}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	wide := inst.round(dur, &pass{})
	runtime.GOMAXPROCS(1)
	if o.pinned != nil {
		if err := setAffinity(o.pinned); err != nil {
			return roundResult{}, err
		}
	}
	return wide, nil
}

// referencePass runs one untraced round and measures the process around it.
func referencePass(inst instance, dur time.Duration) refStats {
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	g0 := runtime.NumGoroutine()
	runtime.ReadMemStats(&ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail with these arguments
	round := inst.round(dur, &pass{})
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)
	time.Sleep(50 * time.Millisecond) // let finished runs' goroutines exit before counting leaks
	cpu := func(ru *syscall.Rusage) time.Duration {
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return refStats{
		round:      round,
		cpu:        cpu(&ru1) - cpu(&ru0),
		gcCycles:   ms1.NumGC - ms0.NumGC,
		heapMiB:    float64(ms1.HeapSys-ms1.HeapReleased) / (1 << 20),
		goroutines: runtime.NumGoroutine() - g0,
	}
}

func (t *tracedRun) print(out io.Writer) {
	fmt.Fprintf(out, "%s: traced: attempted %d / ok %d / failed %d; wide (GOMAXPROCS=%d, ungated): attempted %d / failed %d; spans in %s\n",
		t.w.name, t.attempted, t.attempted-t.failed, t.failed, runtime.NumCPU(), t.wide.attempted, t.wide.failed, t.spans)
	for _, err := range t.errs {
		fmt.Fprintf(out, "%s: traced: failed op: %v\n", t.w.name, err)
	}
	for _, err := range t.wide.errs {
		fmt.Fprintf(out, "%s: wide: failed op: %v\n", t.w.name, err)
	}
	for _, s := range perLayer {
		fmt.Fprintf(out, "  %-12s %-32s %14.4f %s\n", t.w.name, s.name, t.layers[s.name], s.unit)
	}
	l := t.layers
	attributed := l["budget.measured_us_per_task"] - l["budget.residual_us_per_task"]
	fmt.Fprintf(out, "  %s budget, us/task: engine %.2f + wire %.2f + transport %.2f + trace %.2f = %.2f attributed of %.2f measured (%.0f%%), residual %.2f\n",
		t.w.name, l["budget.engine_us_per_task"], l["budget.wire_us_per_task"], l["budget.transport_us_per_task"], l["budget.trace_us_per_task"],
		attributed, l["budget.measured_us_per_task"], 100*l["budget.attributed_frac"], l["budget.residual_us_per_task"])
}

func printHeader(out io.Writer, o options, cpu int) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(out, "bench: workload %s, seed %d, commit %s, %s, nproc %d, GOMAXPROCS 1 pinned to CPU %d (wide pass: %d, unpinned), %d rounds x %.2f s\n",
		o.workloads[0].name, o.seed, commit, runtime.Version(), runtime.NumCPU(), cpu, runtime.NumCPU(),
		o.rounds, o.seconds/float64(o.rounds))
	if o.rounds != defaultRounds || o.seconds != defaultSeconds {
		fmt.Fprintf(out, "bench: non-default development settings: -rounds %d -seconds %g\n", o.rounds, o.seconds)
	}
}

// printNoise prints, per end-to-end pair, min/median/max over the repeats
// and the interquartile spread as a share of the median, over its bound.
func printNoise(out io.Writer, o options, series []map[string]map[string]float64) {
	fmt.Fprintf(out, "\nnoise over %d repeats: spread = (Q3-Q1)/median\n", len(series))
	fmt.Fprintf(out, "%-12s %-18s %12s %12s %12s %8s %6s %s\n", "workload", "metric", "min", "median", "max", "spread", "bound", "spread/bound")
	for _, w := range o.workloads {
		for _, s := range endToEnd {
			var vs []float64
			for _, rep := range series {
				vs = append(vs, rep[w.name][s.name])
			}
			sv := sorted(vs)
			q1, q3 := quartiles(sv)
			spread := (q3 - q1) / median(sv)
			fmt.Fprintf(out, "%-12s %-18s %12.4f %12.4f %12.4f %7.2f%% %5.0f%% %.2f\n",
				w.name, s.name, sv[0], median(sv), sv[len(sv)-1], 100*spread, 100*s.bound, spread/s.bound)
		}
	}
}
