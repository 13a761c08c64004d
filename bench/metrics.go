package main

import (
	"math"
	"strings"
	"time"
)

// metricSpec names one metric. BENCHMARK.json lists the same names, units
// and directions; bench_test.go checks the two agree.
type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the six metrics a user of the runtime would see. Every
// workload reports every one.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"tasks_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"alloc_kb_per_task", "KiB", "lower", 0.03},
	{"slo_ok_frac", "frac", "higher", 0.02},
}

// perLayer are the single-layer metrics, prefixed by package. A metric of a
// layer the workload does not use reads 0.
var perLayer = []metricSpec{
	// The host itself, for reading the rest: not a layer of the program.
	{name: "host.spin_ns_per_kb", unit: "ns", better: "lower"},
	{name: "host.alloc_ns_per_kb", unit: "ns", better: "lower"},
	// internal/core: unit loops and Report().Engine ratios.
	{name: "core.cycle_ns", unit: "ns", better: "lower"},
	{name: "core.cycle_hot_ns", unit: "ns", better: "lower"},
	{name: "core.access_ns", unit: "ns", better: "lower"},
	{name: "core.lock_acq_per_cycle", unit: "count", better: "lower"},
	{name: "core.lock_acq_per_task", unit: "count", better: "lower"},
	{name: "core.waits_per_task", unit: "count", better: "lower"},
	{name: "core.blocked_wakes_per_task", unit: "count", better: "lower"},
	// internal/exec/smp.
	{name: "smp.issue_us_per_task", unit: "us", better: "lower"},
	{name: "smp.busy_frac", unit: "frac", better: "higher"},
	// internal/exec/live: spans around the public calls, Report() ratios.
	{name: "live.setup_ms", unit: "ms", better: "lower"},
	{name: "live.alloc_us_per_obj", unit: "us", better: "lower"},
	{name: "live.issue_us_per_task", unit: "us", better: "lower"},
	{name: "live.drain_ms", unit: "ms", better: "lower"},
	{name: "live.gather_us_per_obj", unit: "us", better: "lower"},
	{name: "live.report_ms", unit: "ms", better: "lower"},
	{name: "live.frames_per_task", unit: "count", better: "lower"},
	{name: "live.bytes_per_task", unit: "B", better: "lower"},
	{name: "live.coalesced_frac", unit: "frac", better: "higher"},
	{name: "live.delta_frac", unit: "frac", better: "higher"},
	{name: "live.delta_saved_frac", unit: "frac", better: "higher"},
	{name: "live.phase_queue_us", unit: "us", better: "lower"},
	{name: "live.phase_fetch_us", unit: "us", better: "lower"},
	{name: "live.phase_exec_us", unit: "us", better: "lower"},
	{name: "live.phase_commit_us", unit: "us", better: "lower"},
	{name: "live.worker_busy_frac", unit: "frac", better: "higher"},
	{name: "live.t1_over_tinf", unit: "ratio", better: "higher"},
	{name: "live.goroutines_leaked_per_op", unit: "count", better: "lower"},
	// internal/transport/wire.
	{name: "wire.encode_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_ns", unit: "ns", better: "lower"},
	{name: "wire.encode_4k_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_4k_ns", unit: "ns", better: "lower"},
	{name: "wire.encode_allocs", unit: "count", better: "lower"},
	{name: "wire.decode_allocs", unit: "count", better: "lower"},
	// internal/transport/{inproc,tcp,mux}.
	{name: "inproc.rtt_us", unit: "us", better: "lower"},
	{name: "inproc.stream_frames_per_s", unit: "1/s", better: "higher"},
	{name: "tcp.rtt_us", unit: "us", better: "lower"},
	{name: "tcp.stream_frames_per_s", unit: "1/s", better: "higher"},
	{name: "tcp.dial_ms", unit: "ms", better: "lower"},
	{name: "mux.rtt_us", unit: "us", better: "lower"},
	{name: "mux.open_us", unit: "us", better: "lower"},
	// internal/format.
	{name: "format.diff_ns_per_kb", unit: "ns", better: "lower"},
	{name: "format.apply_ns_per_kb", unit: "ns", better: "lower"},
	{name: "format.patch_ratio", unit: "frac", better: "lower"},
	// internal/trace.
	{name: "trace.add_ns", unit: "ns", better: "lower"},
	{name: "trace.add_full_ns", unit: "ns", better: "lower"},
	{name: "trace.events_per_task", unit: "count", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
	{name: "trace.dropped_frac", unit: "frac", better: "lower"},
	// internal/obs and internal/profile: behind Report(), off the timed path.
	{name: "obs.hist_record_ns", unit: "ns", better: "lower"},
	{name: "obs.chrome_ms_per_kevent", unit: "ms", better: "lower"},
	{name: "profile.compute_ms_per_kevent", unit: "ms", better: "lower"},
	// internal/exec/live/tenant.
	{name: "tenant.open_us", unit: "us", better: "lower"},
	{name: "tenant.close_us", unit: "us", better: "lower"},
	{name: "tenant.queue_wait_ms_p50", unit: "ms", better: "lower"},
	{name: "tenant.run_ms_p50", unit: "ms", better: "lower"},
	{name: "tenant.queued_frac", unit: "frac", better: "lower"},
	{name: "tenant.peak_active", unit: "count", better: "higher"},
	{name: "tenant.kb_per_session", unit: "KiB", better: "lower"},
	// The serving DAG (serve_tcp).
	{name: "serve.req_ms_p99", unit: "ms", better: "lower"},
	{name: "serve.req_ms_max", unit: "ms", better: "lower"},
	{name: "serve.gen_late_ms_p99", unit: "ms", better: "lower"},
	{name: "serve.achieved_frac", unit: "frac", better: "higher"},
	{name: "serve.burst_rps", unit: "1/s", better: "higher"},
	{name: "serve.create_us_p50", unit: "us", better: "lower"},
	{name: "serve.newarray_us_p50", unit: "us", better: "lower"},
	// The process and the run as a whole.
	{name: "proc.cpu_us_per_task", unit: "us", better: "lower"},
	{name: "proc.gc_per_ktask", unit: "count", better: "lower"},
	{name: "proc.heap_peak_mb", unit: "MiB", better: "lower"},
	{name: "run.op_ms_p99", unit: "ms", better: "lower"},
	{name: "run.op_ms_max", unit: "ms", better: "lower"},
	{name: "run.drift_frac", unit: "ratio", better: "higher"},
	// The per-task time budget: unit costs × per-task counts.
	{name: "budget.engine_us_per_task", unit: "us", better: "lower"},
	{name: "budget.wire_us_per_task", unit: "us", better: "lower"},
	{name: "budget.transport_us_per_task", unit: "us", better: "lower"},
	{name: "budget.transport_isolated_us_per_task", unit: "us", better: "lower"},
	{name: "budget.trace_us_per_task", unit: "us", better: "lower"},
	{name: "budget.measured_us_per_task", unit: "us", better: "lower"},
	{name: "budget.residual_us_per_task", unit: "us", better: "lower"},
	{name: "budget.attributed_frac", unit: "frac", better: "higher"},
	// The ungated pass at GOMAXPROCS = nproc.
	{name: "wide.speed_ratio", unit: "ratio", better: "higher"},
	{name: "wide.fail_frac", unit: "frac", better: "lower"},
}

// missing returns the names in specs that m lacks or holds as NaN or ±Inf.
func missing(specs []metricSpec, m map[string]float64) []string {
	var out []string
	for _, s := range specs {
		if v, ok := m[s.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out = append(out, s.name)
		}
	}
	return out
}

// refStats is what the untraced reference pass of a traced run measured
// around its round, besides the round itself.
type refStats struct {
	round      roundResult
	cpu        time.Duration // getrusage user+system
	gcCycles   uint32
	heapMiB    float64
	goroutines int // NumGoroutine after − before, once the pass has settled
}

// layerMetrics derives the S and C metrics and the budget of one workload
// from its reference pass, its traced pass, the spans of the traced and
// counters passes, the Report() sums of the counters pass and of the
// untraced probe, its wide pass and the unit loops.
func layerMetrics(w workload, units map[string]float64, ref refStats, traced roundResult, rec *recorder, a, probe *layerAcc, wide roundResult) map[string]float64 {
	m := map[string]float64{}
	for k, v := range units {
		m[k] = v
	}
	// Executor- and workload-specific layers read 0 on a workload that
	// bypasses them; every other name must be measured or it is missing.
	for _, s := range perLayer {
		switch prefix, _, _ := strings.Cut(s.name, "."); prefix {
		case "smp", "live", "tenant", "serve":
			if _, ok := m[s.name]; !ok {
				m[s.name] = 0
			}
		}
	}
	tasks := float64(a.tasks)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }

	m["core.lock_acq_per_task"] = ratio(float64(a.lockAcq), tasks)
	m["core.waits_per_task"] = ratio(float64(a.waits), tasks)
	m["core.blocked_wakes_per_task"] = ratio(float64(a.wakes), tasks)

	issueUs := sum(rec.durations("issue")) * 1e3
	exec := "live"
	if w.transport == "" {
		exec = "smp"
		m["smp.busy_frac"] = ratio(float64(a.busy), float64(a.makespanXWorkers))
	} else {
		m["live.worker_busy_frac"] = ratio(float64(a.busy), float64(a.makespanXWorkers))
		m["live.setup_ms"] = orZero(median(rec.durations("setup")))
		m["live.alloc_us_per_obj"] = ratio(sum(rec.durations("alloc"))*1e3, float64(rec.objects.Load()))
		m["live.drain_ms"] = orZero(median(rec.durations("drain")))
		m["live.gather_us_per_obj"] = ratio(sum(rec.durations("gather"))*1e3, float64(rec.objects.Load()))
		m["live.report_ms"] = orZero(median(rec.durations("report")))
		m["live.frames_per_task"] = ratio(float64(a.frames), tasks)
		m["live.bytes_per_task"] = ratio(float64(a.bytes), tasks)
		m["live.coalesced_frac"] = ratio(float64(a.coalesced), tasks)
		m["live.delta_frac"] = ratio(float64(a.deltaXfers), float64(a.deltaXfers+a.fullXfers))
		m["live.delta_saved_frac"] = ratio(float64(a.savedBytes), float64(a.savedBytes+a.deltaBytes+a.fullBytes))
		m["live.phase_queue_us"] = ratio(us(a.queue), float64(a.phaseTasks))
		m["live.phase_fetch_us"] = ratio(us(a.fetch), float64(a.phaseTasks))
		m["live.phase_exec_us"] = ratio(us(a.exec), float64(a.phaseTasks))
		m["live.phase_commit_us"] = ratio(us(a.commit), float64(a.phaseTasks))
		m["live.t1_over_tinf"] = ratio(float64(a.t1), float64(a.tinf))
		m["live.goroutines_leaked_per_op"] = ratio(float64(ref.goroutines), float64(ref.round.attempted))
	}
	m[exec+".issue_us_per_task"] = ratio(issueUs, float64(rec.issued.Load()))

	refRate := ref.round.tasksPerS()
	m["trace.events_per_task"] = ratio(float64(a.events), tasks)
	m["trace.overhead_frac"] = 1 - ratio(traced.tasksPerS(), refRate)
	m["trace.dropped_frac"] = ratio(float64(probe.dropped), m["trace.events_per_task"]*float64(probe.tasks))

	if a.sessionsOpened > 0 {
		m["tenant.queue_wait_ms_p50"] = orZero(median(rec.durations("queue_wait")))
		m["tenant.run_ms_p50"] = orZero(median(rec.durations("run")))
		m["tenant.queued_frac"] = ratio(float64(a.sessionsQueued), float64(a.sessionsOpened))
		m["tenant.peak_active"] = float64(a.peakActive)
		m["tenant.kb_per_session"] = ratio(float64(a.sessionBytes)/1024, float64(a.sessionsOpened))
	}
	if sv := &a.serve; sv.due > 0 {
		m["serve.req_ms_p99"] = percentile(sv.latMs, 0.99)
		m["serve.req_ms_max"] = highest(sv.latMs)
		m["serve.gen_late_ms_p99"] = percentile(sv.lateMs, 0.99)
		m["serve.achieved_frac"] = ratio(float64(sv.completed), float64(sv.due))
		m["serve.burst_rps"] = ratio(float64(sv.burstReqs), sv.burstWall.Seconds())
		var create, newarray []float64
		for _, s := range rec.all() {
			switch {
			case s.parent < 0 || rec.spans[s.parent].name != "request":
			case s.name == "issue":
				create = append(create, float64(s.end-s.start)/1e3/4)
			case s.name == "alloc":
				newarray = append(newarray, float64(s.end-s.start)/1e3/3)
			}
		}
		m["serve.create_us_p50"] = orZero(median(create))
		m["serve.newarray_us_p50"] = orZero(median(newarray))
	}

	refTasks := float64(ref.round.allTasks)
	m["proc.cpu_us_per_task"] = ratio(us(ref.cpu), refTasks)
	m["proc.gc_per_ktask"] = ratio(float64(ref.gcCycles)*1000, refTasks)
	m["proc.heap_peak_mb"] = ref.heapMiB
	m["run.op_ms_p99"] = percentile(ref.round.okMs, 0.99)
	m["run.op_ms_max"] = highest(ref.round.okMs)
	// Throughput of the last third of the pass over the first third; a
	// pass of fewer than three ops shows no drift.
	m["run.drift_frac"] = 1
	if n := len(ref.round.okMs) / 3; n > 0 {
		m["run.drift_frac"] = ratio(median(ref.round.okMs[:n]), median(ref.round.okMs[len(ref.round.okMs)-n:]))
	}

	// The budget: what the unit costs say one task should cost, against
	// what it does cost (wall per task of the reference pass, which at
	// GOMAXPROCS=1 is CPU per task).
	wallUs := ratio(1e6, refRate)
	// The engine's unit of work is an object-queue lock acquisition: a
	// task's engine cost is its acquisitions at the unit cycle's price each.
	engine := m["core.lock_acq_per_task"] * ratio(m["core.cycle_ns"], m["core.lock_acq_per_cycle"]) / 1e3
	frames := m["live.frames_per_task"]
	perFrameBytes := ratio(m["live.bytes_per_task"], frames)
	codec := func(small, big float64) float64 { return small + (big-small)*perFrameBytes/4096 }
	wireUs := frames * (codec(m["wire.encode_ns"], m["wire.encode_4k_ns"]) + codec(m["wire.decode_ns"], m["wire.decode_4k_ns"])) / 1e3
	// A frame's transport cost lies between its share of a saturated,
	// batched stream and half an isolated round trip (on one P both ends'
	// CPU time is in the round trip). The budget attributes the lower one.
	var transportUs, isolatedUs float64
	switch w.transport {
	case "inproc":
		transportUs = frames * ratio(1e6, m["inproc.stream_frames_per_s"])
		isolatedUs = frames * m["inproc.rtt_us"] / 2
	case "tcp":
		transportUs = frames * ratio(1e6, m["tcp.stream_frames_per_s"])
		isolatedUs = frames * m["tcp.rtt_us"] / 2
	}
	traceUs := m["trace.events_per_task"] * m["trace.add_ns"] / 1e3
	m["budget.engine_us_per_task"] = engine
	m["budget.wire_us_per_task"] = wireUs
	m["budget.transport_us_per_task"] = transportUs
	m["budget.transport_isolated_us_per_task"] = isolatedUs
	m["budget.trace_us_per_task"] = traceUs
	attributed := engine + wireUs + transportUs + traceUs
	m["budget.measured_us_per_task"] = wallUs
	m["budget.residual_us_per_task"] = wallUs - attributed
	m["budget.attributed_frac"] = ratio(attributed, wallUs)

	m["wide.speed_ratio"] = ratio(wide.tasksPerS(), refRate)
	m["wide.fail_frac"] = ratio(float64(wide.failed), float64(wide.attempted))
	return m
}

// orZero maps the NaN of an empty sample set to 0: the layer did no work.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
