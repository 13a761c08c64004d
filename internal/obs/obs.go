// Package obs is the observability subsystem: it turns the runtime's
// always-on event stream, and the task lifecycles internal/trace rebuilds
// from it, into interchange formats an engineer can actually look at —
// Chrome-trace/Perfetto JSON for ui.perfetto.dev, a flamegraph-style
// collapsed-stack text view, log-bucketed latency
// histograms (p50/p90/p99/max, mergeable across workers and tenants),
// Prometheus text metrics, and an optional loopback HTTP endpoint
// serving all of them live while a run is in flight.
//
// The event→trace mapping follows the akita-style task/step hooking
// model: every retired task becomes a stack of phase slices
// (queue/fetch/exec/commit) on its machine's process, in a lane (tid)
// chosen so concurrently-live tasks never share a row — the lane is the
// task's reconstructed slot. Object transfers and coalesced dispatches
// become flow arrows from the sender's net lane into the receiving
// task's fetch or exec slice, and counter tracks record outstanding
// tasks, busy lanes and cumulative transfer bytes per machine.
//
// Because every Jade run is bit-identical to its serial oracle, two
// traces of the same seeded program differ only where the schedules
// differ — trace diffing is a legitimate debugging tool here, not a
// heuristic, and the exporter is careful to be byte-deterministic for
// deterministic (simulated virtual-time) runs.
package obs

import (
	"time"

	"repro/internal/trace"
)

// Input is everything the exporters need from one run (or one session
// of a multi-tenant service).
type Input struct {
	// Events is the run's event stream: the full log when tracing was
	// on, or the bounded always-on ring.
	Events []trace.Event
	// Dropped is how many events the ring overwrote. Nonzero makes the
	// exporters emit an explicit truncation marker instead of silently
	// rendering a partial run.
	Dropped uint64
	// Makespan is the run duration (virtual time when simulated).
	Makespan time.Duration
	// Process names the trace's top-level grouping (e.g. "jade" or
	// "session 7"). Empty means "jade".
	Process string
}

// Options tune the Chrome/Perfetto export.
type Options struct {
	// BeginEnd emits B/E slice pairs instead of complete X slices.
	// X is the compact default; B/E streams render identically but
	// survive mid-slice truncation in external tools.
	BeginEnd bool
	// NoFlows suppresses the flow arrows for object transfers and
	// coalesced dispatches.
	NoFlows bool
	// NoCounters suppresses the per-machine counter tracks
	// (outstanding tasks, busy lanes, cumulative bytes).
	NoCounters bool
}
