package obs

import (
	"sort"
	"time"

	"repro/internal/trace"
)

// rootTask is the engine's main-program task ID. It is rendered (its
// span is the run) but excluded from latency-by-kind accounting, like
// the profiler excludes it from work accounting.
const rootTask = 1

// taskView is one task's reconstructed lifecycle, shared by the Chrome
// exporter, the flamegraph and the latency histograms. Phase boundaries
// follow internal/profile's reading of the event stream.
type taskView struct {
	id      uint64
	label   string
	machine int

	created, assigned, fetched, scheduled, started, completed, committed                      time.Duration
	hasCreated, hasAssigned, hasFetched, hasScheduled, hasStarted, hasCompleted, hasCommitted bool

	// Derived slice boundaries (valid when hasCompleted):
	queueStart, fetchStart, execStart, execEnd, commitEnd time.Duration
	hasQueue, hasFetch, hasCommit                         bool

	lane int // assigned by laneAssign; 0 until then
}

// span is the task's full rendered extent, used for lane packing.
func (t *taskView) span() (time.Duration, time.Duration) {
	start := t.execStart
	if t.hasQueue {
		start = t.queueStart
	} else if t.hasFetch {
		start = t.fetchStart
	}
	end := t.execEnd
	if t.hasCommit {
		end = t.commitEnd
	}
	return start, end
}

// buildTasks reconstructs completed tasks from the event stream, in
// ascending task-id order. For each lifecycle kind the last event wins
// (a crash-recovery re-execution re-emits the lifecycle).
func buildTasks(events []trace.Event) []*taskView {
	recs := map[uint64]*taskView{}
	get := func(id uint64) *taskView {
		r := recs[id]
		if r == nil {
			r = &taskView{id: id}
			recs[id] = r
		}
		return r
	}
	for _, ev := range events {
		if ev.Task == 0 {
			continue
		}
		switch ev.Kind {
		case trace.TaskCreated:
			r := get(ev.Task)
			r.created, r.hasCreated = ev.At, true
			if ev.Label != "" {
				r.label = ev.Label
			}
		case trace.TaskAssigned:
			r := get(ev.Task)
			r.assigned, r.hasAssigned = ev.At, true
			r.machine = ev.Dst
			if ev.Label != "" {
				r.label = ev.Label
			}
		case trace.TaskFetched:
			r := get(ev.Task)
			r.fetched, r.hasFetched = ev.At, true
		case trace.TaskScheduled:
			r := get(ev.Task)
			r.scheduled, r.hasScheduled = ev.At, true
			r.machine = ev.Dst
			if ev.Label != "" {
				r.label = ev.Label
			}
		case trace.TaskStarted:
			r := get(ev.Task)
			r.started, r.hasStarted = ev.At, true
			r.machine = ev.Dst
			if ev.Label != "" {
				r.label = ev.Label
			}
		case trace.TaskCompleted:
			r := get(ev.Task)
			r.completed, r.hasCompleted = ev.At, true
		case trace.TaskCommitted:
			r := get(ev.Task)
			r.committed, r.hasCommitted = ev.At, true
		}
	}
	clampUp := func(d, floor time.Duration) time.Duration {
		if d < floor {
			return floor
		}
		return d
	}
	var out []*taskView
	for _, r := range recs {
		if !r.hasCompleted {
			continue
		}
		switch {
		case r.hasScheduled:
			r.execStart = r.scheduled
		case r.hasStarted:
			r.execStart = r.started
		default:
			continue // too incomplete to render (ring-dropped prefix)
		}
		r.execEnd = clampUp(r.completed, r.execStart)
		if r.hasFetched {
			fs := r.assigned
			if !r.hasAssigned || (r.hasScheduled && r.fetched > r.scheduled) {
				// No-prefetch shape: the fetch ran while holding the cpu.
				fs = r.execStart
			}
			if fs > r.fetched {
				fs = r.fetched
			}
			r.fetchStart, r.hasFetch = fs, true
			if r.fetched > r.execStart {
				r.execStart = r.fetched
				r.execEnd = clampUp(r.execEnd, r.execStart)
			}
		}
		if r.hasCreated {
			qEnd := r.execStart
			if r.hasFetch {
				qEnd = r.fetchStart
			}
			if r.created <= qEnd {
				r.queueStart, r.hasQueue = r.created, true
			}
		}
		if r.hasCommitted {
			r.commitEnd, r.hasCommit = clampUp(r.committed, r.execEnd), true
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// laneAssign packs each machine's tasks into lanes (Perfetto tids) so
// that tasks live at the same time never share a row — the lane is the
// task's reconstructed worker slot. Lane 0 is reserved for the
// machine's net track; task lanes start at 1. Deterministic: tasks are
// placed in (start, id) order onto the lowest free lane.
func laneAssign(tasks []*taskView) map[int]int {
	byMachine := map[int][]*taskView{}
	for _, t := range tasks {
		byMachine[t.machine] = append(byMachine[t.machine], t)
	}
	laneCount := map[int]int{}
	for m, ts := range byMachine {
		sort.Slice(ts, func(i, j int) bool {
			si, _ := ts[i].span()
			sj, _ := ts[j].span()
			if si != sj {
				return si < sj
			}
			return ts[i].id < ts[j].id
		})
		var laneEnd []time.Duration
		for _, t := range ts {
			start, end := t.span()
			placed := false
			for li, le := range laneEnd {
				if le <= start {
					t.lane = li + 1
					laneEnd[li] = end
					placed = true
					break
				}
			}
			if !placed {
				laneEnd = append(laneEnd, end)
				t.lane = len(laneEnd)
			}
		}
		laneCount[m] = len(laneEnd)
	}
	return laneCount
}

// LatencyByLabel computes per-task-kind latency histograms from the
// event stream: Total is create→commit (create→complete when the commit
// event is missing), Exec the processor-held span. The main-program
// task is excluded. Results are sorted by label.
func LatencyByLabel(events []trace.Event) []LabelLatency {
	tasks := buildTasks(events)
	hists := map[string]*struct{ total, exec Histogram }{}
	for _, t := range tasks {
		if t.id == rootTask {
			continue
		}
		lbl := t.label
		if lbl == "" {
			lbl = "(unlabeled)"
		}
		h := hists[lbl]
		if h == nil {
			h = &struct{ total, exec Histogram }{}
			hists[lbl] = h
		}
		end := t.execEnd
		if t.hasCommit {
			end = t.commitEnd
		}
		start := t.execStart
		if t.hasQueue {
			start = t.queueStart
		} else if t.hasFetch {
			start = t.fetchStart
		}
		h.total.Record(end - start)
		h.exec.Record(t.execEnd - t.execStart)
	}
	labels := make([]string, 0, len(hists))
	for l := range hists {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]LabelLatency, 0, len(labels))
	for _, l := range labels {
		out = append(out, LabelLatency{
			Label: l,
			Total: hists[l].total.Snapshot(),
			Exec:  hists[l].exec.Snapshot(),
		})
	}
	return out
}
