package jade

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/rt"
)

// ObsOptions tune trace exports (see Runtime.ExportTrace).
type ObsOptions = obs.Options

// LabelLatency is one task kind's latency distributions in Report.Latency.
type LabelLatency = obs.LabelLatency

// LatencySnapshot is a mergeable latency histogram snapshot
// (p50/p90/p99/max over log-spaced buckets).
type LatencySnapshot = obs.HistSnapshot

// ObsConfig configures the live observability endpoint: an HTTP
// listener serving
//
//	/metrics   Prometheus text exposition
//	/trace     Perfetto JSON of the current event ring (ui.perfetto.dev)
//	/profile   the phase-profile text report
//
// while the run (or service) is in flight. On a Service, each path
// accepts ?session=NAME to scope to one tenant session.
type ObsConfig struct {
	// Addr is the listen address. Empty or port-only (":8077") binds
	// loopback — the endpoint is diagnostic and unauthenticated, so
	// exposing it beyond the machine is a deliberate choice.
	Addr string
}

// startObs wires the runtime's own state into an obs endpoint.
func (r *Runtime) startObs(cfg ObsConfig) error {
	srv, err := obs.Serve(cfg.Addr, obs.Handlers{
		Metrics: func(string) ([]obs.Metric, error) { return execMetrics(r.ex, r.obsMakespan()), nil },
		Trace:   func(_ string, w io.Writer) error { return r.ExportTrace(w, ObsOptions{}) },
		Profile: func(_ string, w io.Writer) error { return writeProfile(w, r.ex, r.obsMakespan()) },
	})
	if err != nil {
		return err
	}
	r.obsSrv = srv
	return nil
}

// ObsAddr returns the observability endpoint's bound address ("" when
// no endpoint was configured). Useful with ObsConfig{Addr: ":0"}.
func (r *Runtime) ObsAddr() string {
	if r.obsSrv == nil {
		return ""
	}
	return r.obsSrv.Addr()
}

// StopObs shuts the observability endpoint down (no-op without one).
func (r *Runtime) StopObs() {
	if r.obsSrv != nil {
		r.obsSrv.Close()
		r.obsSrv = nil
	}
}

// obsMakespan is the run duration as visible mid-run: the final
// makespan once Run returned, the running wall clock while in flight.
func (r *Runtime) obsMakespan() time.Duration {
	if r.wall > 0 || r.runStart.IsZero() {
		return r.Makespan()
	}
	return time.Since(r.runStart)
}

// ExportTrace writes the run as Chrome-trace/Perfetto JSON — open the
// file in https://ui.perfetto.dev. It reads the always-on event stream,
// so it works with tracing off (covering the bounded ring window; the
// export carries an explicit truncation marker when events were
// dropped) and may be called mid-run for a live snapshot.
func (r *Runtime) ExportTrace(w io.Writer, opt ObsOptions) error {
	return writeTrace(w, r.ex, "", opt)
}

// writeTrace writes one executor's event window (a dedicated runtime's,
// or one session's of a service) as Chrome-trace/Perfetto JSON under the
// process name ("" is "jade").
func writeTrace(w io.Writer, ex rt.Exec, process string, opt ObsOptions) error {
	events, dropped := ex.Log().Snapshot()
	return obs.WriteChrome(w, obs.Input{Events: events, Dropped: dropped, Process: process}, opt)
}

// writeProfile writes one executor's phase profile as the text report.
// A zero makespan is read off the events.
func writeProfile(w io.Writer, ex rt.Exec, makespan time.Duration) error {
	events, dropped := ex.Log().Snapshot()
	p := profile.Compute(profile.Input{Events: events, Dropped: dropped, Makespan: makespan})
	_, err := io.WriteString(w, p.Text())
	return err
}

// ExportFlame writes the run as flamegraph-style collapsed stacks
// (machine;label;phase weight), aggregated from the same event stream
// as ExportTrace.
func (r *Runtime) ExportFlame(w io.Writer) error {
	events, dropped := r.ex.Log().Snapshot()
	return obs.WriteFlame(w, obs.Input{Events: events, Dropped: dropped})
}

// execMetrics renders one executor's always-on counters (a dedicated
// runtime, or one session of a service) as Prometheus metric families.
// Safe mid-run: every source is lock-protected or atomic.
func execMetrics(ex rt.Exec, makespan time.Duration) []obs.Metric {
	es := ex.Engine().Stats()
	c := ex.Counters()
	st := ex.Stats()
	events, dropped := ex.Log().Snapshot()

	ms := []obs.Metric{
		{Name: "jade_makespan_seconds", Help: "run duration so far (final after Run returns)", Type: "gauge",
			Samples: []obs.Sample{{Value: makespan.Seconds()}}},
		{Name: "jade_tasks_created_total", Help: "tasks created (excluding the main program)", Type: "counter",
			Samples: []obs.Sample{{Value: float64(es.TasksCreated)}}},
		{Name: "jade_tasks_completed_total", Help: "tasks completed", Type: "counter",
			Samples: []obs.Sample{{Value: float64(es.TasksCompleted)}}},
		{Name: "jade_tasks_run_total", Help: "task bodies executed (including inlined children)", Type: "counter",
			Samples: []obs.Sample{{Value: float64(c.TasksRun)}}},
		{Name: "jade_engine_waits_total", Help: "access waits in the dependency engine", Type: "counter",
			Samples: []obs.Sample{{Value: float64(es.Waits)}}},
		{Name: "jade_trace_dropped_events_total", Help: "events overwritten by the bounded trace ring", Type: "counter",
			Samples: []obs.Sample{{Value: float64(dropped)}}},
	}

	var busy []obs.Sample
	for m, d := range c.Busy {
		busy = append(busy, obs.Sample{
			Labels: [][2]string{{"machine", fmt.Sprint(m)}},
			Value:  d.Seconds(),
		})
	}
	if len(busy) > 0 {
		ms = append(ms, obs.Metric{Name: "jade_machine_busy_seconds", Type: "counter",
			Help: "per-machine processor-held time", Samples: busy})
	}

	ms = append(ms,
		obs.Metric{Name: "jade_net_messages_total", Type: "counter",
			Help:    "network messages (frames on a live runtime)",
			Samples: []obs.Sample{{Value: float64(st.Net.Messages)}}},
		obs.Metric{Name: "jade_net_bytes_total", Type: "counter",
			Samples: []obs.Sample{{Value: float64(st.Net.Bytes)}}},
	)

	var slotSamples, heldSamples []obs.Sample
	for _, ws := range st.Workers {
		l := [][2]string{{"machine", fmt.Sprint(ws.Machine)}, {"state", ws.State}}
		slotSamples = append(slotSamples, obs.Sample{Labels: l, Value: float64(ws.Slots)})
		heldSamples = append(heldSamples, obs.Sample{Labels: l, Value: float64(ws.Held)})
	}
	if len(slotSamples) > 0 {
		ms = append(ms,
			obs.Metric{Name: "jade_worker_slots", Type: "gauge",
				Help: "advertised worker task slots", Samples: slotSamples},
			obs.Metric{Name: "jade_worker_slots_held", Type: "gauge",
				Help: "worker task slots currently charged", Samples: heldSamples},
		)
	}

	for _, ll := range obs.LatencyByLabel(events) {
		base := [][2]string{{"label", ll.Label}}
		ms = append(ms, obs.HistogramMetric("jade_task_latency_seconds",
			"create-to-commit task latency by label", base, ll.Total)...)
		ms = append(ms, obs.HistogramMetric("jade_task_exec_seconds",
			"processor-held task time by label", base, ll.Exec)...)
	}
	return ms
}
