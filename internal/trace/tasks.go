package trace

import (
	"cmp"
	"slices"
	"time"
)

// RootTask is the engine's main-program task ID. Its lifecycle spans the
// run; the readers that account work or latency per task leave it out.
const RootTask = 1

// TaskLife is one completed task's lifecycle, rebuilt from the event
// stream by Tasks: the last event of each lifecycle kind, and the phase
// boundaries derived from them (DESIGN.md §4.11). Every view of a run —
// the profile, the Chrome and flame exports, the latency histograms and
// the Gantt chart — reads its tasks from here.
type TaskLife struct {
	ID    uint64
	Label string
	// Machine is the Dst of the task's last TaskAssigned, TaskScheduled
	// or TaskStarted.
	Machine int

	Created, Assigned, Fetched, Scheduled, Started, Completed, Committed        time.Duration
	HasCreated, HasAssigned, HasFetched, HasScheduled, HasStarted, HasCommitted bool

	// Claim is when the task claimed its processor: TaskScheduled, or
	// TaskStarted where the executor records no TaskScheduled.
	Claim time.Duration
	// The phases in order: queue [QueueStart, FetchStart or ExecStart),
	// fetch [FetchStart, Fetched), exec [ExecStart, ExecEnd) and commit
	// [ExecEnd, CommitEnd). Queue, fetch and commit exist only when the
	// matching Has flag is set.
	QueueStart, FetchStart, ExecStart, ExecEnd, CommitEnd time.Duration
	HasQueue, HasFetch, HasCommit                         bool

	completed bool
}

// QueueEnd is where the queue phase ends: the fetch start, or the exec
// start when the task fetched nothing.
func (t *TaskLife) QueueEnd() time.Duration {
	if t.HasFetch {
		return t.FetchStart
	}
	return t.ExecStart
}

// Span is the task's full extent, from its first phase's start to its
// last phase's end.
func (t *TaskLife) Span() (start, end time.Duration) {
	start = t.ExecStart
	if t.HasQueue {
		start = t.QueueStart
	} else if t.HasFetch {
		start = t.FetchStart
	}
	end = t.ExecEnd
	if t.HasCommit {
		end = t.CommitEnd
	}
	return start, end
}

// Tasks rebuilds the lifecycles of the completed tasks in the events each
// yields, in ascending task-id order. For each lifecycle kind the last
// event wins: a crash-recovery re-execution re-emits the lifecycle, and
// the completing attempt is the one that matters. A task with neither a
// TaskScheduled nor a TaskStarted (its prefix fell out of a ring) is
// skipped. The lifecycles share one slice, so tasks cost no allocation
// each.
func Tasks(each func(yield func(Event))) []TaskLife {
	idx := map[uint64]int{}
	var all []TaskLife
	each(func(ev Event) {
		switch ev.Kind {
		case TaskCreated, TaskAssigned, TaskFetched, TaskScheduled, TaskStarted, TaskCompleted, TaskCommitted:
		default:
			return
		}
		if ev.Task == 0 {
			return
		}
		i, ok := idx[ev.Task]
		if !ok {
			i = len(all)
			idx[ev.Task] = i
			all = append(all, TaskLife{ID: ev.Task})
		}
		t := &all[i]
		switch ev.Kind {
		case TaskCreated:
			t.Created, t.HasCreated = ev.At, true
		case TaskAssigned:
			t.Assigned, t.HasAssigned, t.Machine = ev.At, true, ev.Dst
		case TaskFetched:
			t.Fetched, t.HasFetched = ev.At, true
			return
		case TaskScheduled:
			t.Scheduled, t.HasScheduled, t.Machine = ev.At, true, ev.Dst
		case TaskStarted:
			t.Started, t.HasStarted, t.Machine = ev.At, true, ev.Dst
		case TaskCompleted:
			t.Completed, t.completed = ev.At, true
			return
		case TaskCommitted:
			t.Committed, t.HasCommitted = ev.At, true
			return
		}
		if ev.Label != "" {
			t.Label = ev.Label
		}
	})
	out := all[:0]
	for i := range all {
		t := all[i]
		if !t.completed {
			continue
		}
		switch {
		case t.HasScheduled:
			t.Claim = t.Scheduled
		case t.HasStarted:
			t.Claim = t.Started
		default:
			continue
		}
		t.derive()
		out = append(out, t)
	}
	slices.SortFunc(out, func(a, b TaskLife) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// derive computes the phase boundaries from the timestamps and Claim.
func (t *TaskLife) derive() {
	t.ExecStart = t.Claim
	t.ExecEnd = max(t.Completed, t.ExecStart)
	if t.HasFetched {
		// The fetch starts at the assignment when the runtime prefetched,
		// and at the processor claim otherwise: a task never assigned (an
		// inline child) or one that fetched while holding its processor.
		fs := t.Assigned
		if !t.HasAssigned || (t.HasScheduled && t.Fetched > t.Scheduled) {
			fs = t.Claim
		}
		t.FetchStart, t.HasFetch = min(fs, t.Fetched), true
		if t.Fetched > t.ExecStart {
			t.ExecStart = t.Fetched
			t.ExecEnd = max(t.ExecEnd, t.ExecStart)
		}
	}
	if t.HasCreated && t.Created <= t.QueueEnd() {
		t.QueueStart, t.HasQueue = t.Created, true
	}
	if t.HasCommitted {
		t.CommitEnd, t.HasCommit = max(t.Committed, t.ExecEnd), true
	}
}
