package obs

import (
	"cmp"
	"slices"
	"sort"
	"strings"
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

// buildTasks reconstructs completed tasks from the events each yields, in
// ascending task-id order. For each lifecycle kind the last event wins
// (a crash-recovery re-execution re-emits the lifecycle). The views share
// one slice, so tasks cost no allocation each.
func buildTasks(each func(yield func(trace.Event))) []*taskView {
	idx := map[uint64]int{}
	var views []taskView
	get := func(id uint64) *taskView {
		i, ok := idx[id]
		if !ok {
			i = len(views)
			idx[id] = i
			views = append(views, taskView{id: id})
		}
		return &views[i]
	}
	each(func(ev trace.Event) {
		if ev.Task == 0 {
			return
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
	})
	clampUp := func(d, floor time.Duration) time.Duration {
		if d < floor {
			return floor
		}
		return d
	}
	out := make([]*taskView, 0, len(views))
	for i := range views {
		r := &views[i]
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
	slices.SortFunc(out, func(a, b *taskView) int { return cmp.Compare(a.id, b.id) })
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

// Latencies accumulates per-task-kind latency by label, across the event
// streams folded and the accumulators merged into it.
type Latencies map[string]*LabelLatency

// Fold adds the tasks in the events each yields: Total is create→commit
// (create→complete when the commit event is missing), Exec the
// processor-held span. The main-program task is excluded. Folding
// several streams merges them.
func (a Latencies) Fold(each func(yield func(trace.Event))) {
	for _, t := range buildTasks(each) {
		if t.id == rootTask {
			continue
		}
		ll := a.get(t.label)
		start, end := t.span()
		ll.Total.add(end - start)
		ll.Exec.add(t.execEnd - t.execStart)
	}
}

// Merge adds b's distributions to a's.
func (a Latencies) Merge(b Latencies) {
	for _, ll := range b {
		cur := a.get(ll.Label)
		cur.Total, cur.Exec = cur.Total.Merge(ll.Total), cur.Exec.Merge(ll.Exec)
	}
}

func (a Latencies) get(label string) *LabelLatency {
	if label == "" {
		label = "(unlabeled)"
	}
	ll := a[label]
	if ll == nil {
		ll = &LabelLatency{Label: label}
		a[label] = ll
	}
	return ll
}

// Sorted returns the distributions sorted by label.
func (a Latencies) Sorted() []LabelLatency {
	out := make([]LabelLatency, 0, len(a))
	for _, ll := range a {
		out = append(out, *ll)
	}
	slices.SortFunc(out, func(x, y LabelLatency) int { return strings.Compare(x.Label, y.Label) })
	return out
}

// LatencyByLabel computes per-task-kind latency histograms from an event
// stream (see Latencies.Fold), sorted by label.
func LatencyByLabel(events []trace.Event) []LabelLatency {
	a := Latencies{}
	a.Fold(each(events))
	return a.Sorted()
}

// each yields events one by one, the form buildTasks reads.
func each(events []trace.Event) func(yield func(trace.Event)) {
	return func(yield func(trace.Event)) {
		for _, ev := range events {
			yield(ev)
		}
	}
}
