// Package profile turns the runtime's always-on event stream into the
// paper's §7 explanation artifacts: where each task's time went (queueing,
// fetch/transfer wait, execution, commit), how busy each machine was, which
// dependence chain bounds the achievable speedup (the critical path: T∞ and
// its task/object composition, against total work T₁), and which objects
// and task labels cause the most data motion and stall time.
//
// The critical-path numbers carry a proof obligation the S1 experiment
// checks: T∞ never exceeds the measured makespan, and on one processor the
// makespan approaches T₁. Both follow from how the path is built — a node's
// weight is its processor-held span [scheduled, completed], and an edge
// u→v is kept only when completed(u) ≤ scheduled(v), so the spans along any
// path are pairwise disjoint sub-intervals of [0, makespan].
package profile

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// Input is everything Compute needs. Events is the run's event stream
// (bounded ring or full log); MachineBusy, when present, is the executors'
// always-on processor-held counters and gives exact utilization even where
// a ring dropped events.
type Input struct {
	Events      []trace.Event
	Dropped     uint64
	Makespan    time.Duration
	MachineBusy []time.Duration
}

// Phases is a time breakdown over the profiler's four task phases.
type Phases struct {
	// Queue is create→ready dependence queueing plus waiting for a
	// processor (everything before execution that is not data transfer).
	Queue time.Duration `json:"queue"`
	// Fetch is the fetch/transfer wait moving the task's declared objects
	// to its machine.
	Fetch time.Duration `json:"fetch"`
	// Exec is the processor-held span: dispatch overhead plus the body.
	Exec time.Duration `json:"exec"`
	// Commit is completion bookkeeping (releasing rights, waking
	// successors) after the body finished.
	Commit time.Duration `json:"commit"`
}

// PathNode is one task on the critical path.
type PathNode struct {
	Task    uint64        `json:"task"`
	Label   string        `json:"label,omitempty"`
	Machine int           `json:"machine"`
	Start   time.Duration `json:"start"`
	End     time.Duration `json:"end"`
	Weight  time.Duration `json:"weight"`
	// ViaObject is the object carrying the dependence from the previous
	// path node (0 for the first node).
	ViaObject uint64 `json:"viaObject,omitempty"`
}

// MachineUtil is one machine's utilization over the run.
type MachineUtil struct {
	Machine     int           `json:"machine"`
	Busy        time.Duration `json:"busy"`
	Tasks       int           `json:"tasks"`
	Utilization float64       `json:"utilization"`
}

// ObjectHotspot attributes data motion and stall time to one object.
type ObjectHotspot struct {
	Object    uint64        `json:"object"`
	Label     string        `json:"label,omitempty"`
	Bytes     int64         `json:"bytes"`
	Transfers int           `json:"transfers"`
	Stall     time.Duration `json:"stall"`
}

// LabelStat aggregates the tasks sharing one label.
type LabelStat struct {
	Label string        `json:"label"`
	Count int           `json:"count"`
	Exec  time.Duration `json:"exec"`
	Queue time.Duration `json:"queue"`
	Fetch time.Duration `json:"fetch"`
	Max   time.Duration `json:"maxExec"`
}

// Profile is the computed report.
type Profile struct {
	Makespan time.Duration `json:"makespan"`
	// T1 is the total work: the sum of all task weights — the serial
	// execution time of the task bodies plus per-task dispatch overhead.
	T1 time.Duration `json:"t1"`
	// TInf is the critical-path length: no schedule on any number of
	// processors finishes before TInf.
	TInf time.Duration `json:"tinf"`
	// Ceiling is the implied speedup bound T1/TInf.
	Ceiling float64 `json:"ceiling"`
	// Tasks counts profiled (completed, non-root) tasks. DroppedEvents is
	// how many events the always-on ring overwrote; nonzero means the
	// profile is computed from a suffix of the execution.
	Tasks         int    `json:"tasks"`
	DroppedEvents uint64 `json:"droppedEvents"`

	Phases   Phases          `json:"phases"`
	Path     []PathNode      `json:"criticalPath"`
	Machines []MachineUtil   `json:"machines"`
	Objects  []ObjectHotspot `json:"objects"`
	Labels   []LabelStat     `json:"labels"`
}

// task is one profiled task: its lifecycle and what the profiler derives
// from it.
type task struct {
	*trace.TaskLife
	phases Phases
	weight time.Duration // the processor-held span [Claim, Completed]

	// The longest chain of weights ending here, and the task and object
	// before this one on it.
	finish time.Duration
	pred   *task
	via    uint64
}

// Compute builds a Profile from the event stream.
func Compute(in Input) *Profile {
	p := &Profile{Makespan: in.Makespan, DroppedEvents: in.Dropped}
	type edge struct {
		from, to uint64
		obj      uint64
	}
	var edges []edge
	objLabels := map[uint64]string{}
	objBytes := map[uint64]int64{}
	objTransfers := map[uint64]int{}
	// taskXfers[t] lists (object, bytes) transfers performed for task t,
	// for distributing its fetch stall across the objects that caused it.
	type xfer struct {
		obj   uint64
		bytes int64
	}
	taskXfers := map[uint64][]xfer{}

	for _, ev := range in.Events {
		if ev.At > p.Makespan {
			p.Makespan = ev.At
		}
		if ev.Object != 0 && ev.Label != "" {
			switch ev.Kind {
			case trace.ObjectMoved, trace.ObjectCopied, trace.ObjectInvalidated, trace.ObjectPatched:
				objLabels[ev.Object] = ev.Label
			}
		}
		switch ev.Kind {
		case trace.Depend:
			edges = append(edges, edge{from: ev.Task, to: ev.Other, obj: ev.Object})
		case trace.MessageSent:
			if ev.Object != 0 {
				objBytes[ev.Object] += int64(ev.Bytes)
			}
		case trace.ObjectMoved, trace.ObjectCopied, trace.ObjectPatched:
			objTransfers[ev.Object]++
			if ev.Task != 0 {
				taskXfers[ev.Task] = append(taskXfers[ev.Task], xfer{obj: ev.Object, bytes: int64(ev.Bytes) + 1})
			}
		}
	}

	// Per-task phase breakdown and critical-path weight, in ascending id
	// order.
	clamp := func(d time.Duration) time.Duration {
		if d < 0 {
			return 0
		}
		return d
	}
	lives := trace.Tasks(func(yield func(trace.Event)) {
		for _, ev := range in.Events {
			yield(ev)
		}
	})
	tasks := make([]task, 0, len(lives))
	byID := make(map[uint64]*task, len(lives))
	for i := range lives {
		l := &lives[i]
		if l.ID == trace.RootTask {
			continue
		}
		r := task{TaskLife: l, weight: clamp(l.Completed - l.Claim)}
		if l.HasFetch {
			r.phases.Fetch = l.Fetched - l.FetchStart
		}
		r.phases.Exec = l.ExecEnd - l.ExecStart
		if l.HasCreated {
			r.phases.Queue = clamp(l.ExecStart - l.Created - r.phases.Fetch)
		}
		if l.HasCommitted {
			r.phases.Commit = clamp(l.Committed - l.Completed)
		}
		p.Phases.Queue += r.phases.Queue
		p.Phases.Fetch += r.phases.Fetch
		p.Phases.Exec += r.phases.Exec
		p.Phases.Commit += r.phases.Commit
		p.T1 += r.weight
		tasks = append(tasks, r)
	}
	for i := range tasks {
		byID[tasks[i].ID] = &tasks[i]
	}
	p.Tasks = len(tasks)

	// Critical path: longest chain of processor-held spans linked by
	// dependences that actually serialized (completed(u) ≤ scheduled(v)).
	// Task IDs ascend in creation order and every Depend edge points from
	// an earlier-created task to a later one, so ascending ID order is a
	// topological order of the DAG.
	inEdges := map[uint64][]edge{}
	for _, e := range edges {
		if e.from == trace.RootTask || e.to == trace.RootTask {
			continue
		}
		inEdges[e.to] = append(inEdges[e.to], e)
	}
	var tail *task
	for i := range tasks {
		r := &tasks[i]
		for _, e := range inEdges[r.ID] {
			u := byID[e.from]
			if u != nil && u.Completed <= r.Claim && u.finish > r.finish {
				r.finish, r.pred, r.via = u.finish, u, e.obj
			}
		}
		r.finish += r.weight
		if r.finish > p.TInf {
			p.TInf, tail = r.finish, r
		}
	}
	for r := tail; r != nil; r = r.pred {
		p.Path = append(p.Path, PathNode{
			Task: r.ID, Label: r.Label, Machine: r.Machine,
			Start: r.Claim, End: r.Completed, Weight: r.weight, ViaObject: r.via,
		})
	}
	// Reverse into execution order.
	for i, j := 0, len(p.Path)-1; i < j; i, j = i+1, j-1 {
		p.Path[i], p.Path[j] = p.Path[j], p.Path[i]
	}
	if p.TInf > 0 {
		p.Ceiling = float64(p.T1) / float64(p.TInf)
	}

	// Machine utilization: always-on counters when available, otherwise
	// the sum of processor-held spans observed in the events.
	tasksOn := map[int]int{}
	for i := range tasks {
		tasksOn[tasks[i].Machine]++
	}
	if len(in.MachineBusy) > 0 {
		for m, busy := range in.MachineBusy {
			u := MachineUtil{Machine: m, Busy: busy, Tasks: tasksOn[m]}
			if p.Makespan > 0 {
				u.Utilization = float64(busy) / float64(p.Makespan)
			}
			p.Machines = append(p.Machines, u)
		}
	} else {
		busy := map[int]time.Duration{}
		for i := range tasks {
			busy[tasks[i].Machine] += tasks[i].weight
		}
		ms := make([]int, 0, len(busy))
		for m := range busy {
			ms = append(ms, m)
		}
		sort.Ints(ms)
		for _, m := range ms {
			u := MachineUtil{Machine: m, Busy: busy[m], Tasks: tasksOn[m]}
			if p.Makespan > 0 {
				u.Utilization = float64(busy[m]) / float64(p.Makespan)
			}
			p.Machines = append(p.Machines, u)
		}
	}

	// Object hotspots: bytes moved directly from messages; stall time by
	// distributing each task's fetch phase over the transfers it performed,
	// proportionally to their size.
	objStall := map[uint64]time.Duration{}
	for i := range tasks {
		r := &tasks[i]
		if r.phases.Fetch <= 0 {
			continue
		}
		xs := taskXfers[r.ID]
		var total int64
		for _, x := range xs {
			total += x.bytes
		}
		if total == 0 {
			continue
		}
		for _, x := range xs {
			objStall[x.obj] += time.Duration(float64(r.phases.Fetch) * float64(x.bytes) / float64(total))
		}
	}
	objs := map[uint64]bool{}
	for o := range objBytes {
		objs[o] = true
	}
	for o := range objStall {
		objs[o] = true
	}
	for o := range objTransfers {
		objs[o] = true
	}
	for o := range objs {
		p.Objects = append(p.Objects, ObjectHotspot{
			Object: o, Label: objLabels[o],
			Bytes: objBytes[o], Transfers: objTransfers[o], Stall: objStall[o],
		})
	}
	sort.Slice(p.Objects, func(i, j int) bool {
		a, b := p.Objects[i], p.Objects[j]
		if a.Stall != b.Stall {
			return a.Stall > b.Stall
		}
		if a.Bytes != b.Bytes {
			return a.Bytes > b.Bytes
		}
		return a.Object < b.Object
	})

	// Label aggregation.
	byLabel := map[string]*LabelStat{}
	var labelOrder []string
	for i := range tasks {
		r := &tasks[i]
		lbl := r.Label
		if lbl == "" {
			lbl = "(unlabeled)"
		}
		ls := byLabel[lbl]
		if ls == nil {
			ls = &LabelStat{Label: lbl}
			byLabel[lbl] = ls
			labelOrder = append(labelOrder, lbl)
		}
		ls.Count++
		ls.Exec += r.phases.Exec
		ls.Queue += r.phases.Queue
		ls.Fetch += r.phases.Fetch
		if r.phases.Exec > ls.Max {
			ls.Max = r.phases.Exec
		}
	}
	sort.Slice(labelOrder, func(i, j int) bool {
		a, b := byLabel[labelOrder[i]], byLabel[labelOrder[j]]
		if a.Exec != b.Exec {
			return a.Exec > b.Exec
		}
		return a.Label < b.Label
	})
	for _, lbl := range labelOrder {
		p.Labels = append(p.Labels, *byLabel[lbl])
	}
	return p
}

// topN is how many hotspot rows Text prints per section.
const topN = 8

// Text renders the profile as a human-readable report.
func (p *Profile) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile: makespan %v, %d tasks", p.Makespan, p.Tasks)
	if p.DroppedEvents > 0 {
		fmt.Fprintf(&b, " (PARTIAL: ring dropped %d events)", p.DroppedEvents)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  work T1 = %v   critical path Tinf = %v   speedup ceiling T1/Tinf = %.2f\n",
		p.T1, p.TInf, p.Ceiling)
	fmt.Fprintf(&b, "  phase totals: queue %v   fetch %v   exec %v   commit %v\n",
		p.Phases.Queue, p.Phases.Fetch, p.Phases.Exec, p.Phases.Commit)
	if len(p.Machines) > 0 {
		b.WriteString("  machine utilization:\n")
		for _, m := range p.Machines {
			fmt.Fprintf(&b, "    machine %-3d busy %-14v util %5.1f%%  tasks %d\n",
				m.Machine, m.Busy, 100*m.Utilization, m.Tasks)
		}
	}
	if len(p.Path) > 0 {
		fmt.Fprintf(&b, "  critical path (%d tasks):\n", len(p.Path))
		for _, n := range p.Path {
			lbl := n.Label
			if lbl == "" {
				lbl = fmt.Sprintf("task %d", n.Task)
			}
			fmt.Fprintf(&b, "    #%-5d %-24s m%-3d [%v .. %v]", n.Task, lbl, n.Machine, n.Start, n.End)
			if n.ViaObject != 0 {
				fmt.Fprintf(&b, "  via obj #%d", n.ViaObject)
			}
			b.WriteString("\n")
		}
	}
	if len(p.Objects) > 0 {
		b.WriteString("  hottest objects (by stall caused, bytes moved):\n")
		for i, o := range p.Objects {
			if i == topN {
				fmt.Fprintf(&b, "    ... and %d more\n", len(p.Objects)-topN)
				break
			}
			lbl := o.Label
			if lbl == "" {
				lbl = fmt.Sprintf("obj %d", o.Object)
			}
			fmt.Fprintf(&b, "    #%-5d %-24s %8dB moved  %4d transfers  stall %v\n",
				o.Object, lbl, o.Bytes, o.Transfers, o.Stall)
		}
	}
	if len(p.Labels) > 0 {
		b.WriteString("  hottest task labels (by exec time):\n")
		for i, l := range p.Labels {
			if i == topN {
				fmt.Fprintf(&b, "    ... and %d more\n", len(p.Labels)-topN)
				break
			}
			fmt.Fprintf(&b, "    %-24s %5d tasks  exec %-14v queue %-14v fetch %v\n",
				l.Label, l.Count, l.Exec, l.Queue, l.Fetch)
		}
	}
	return b.String()
}

// JSON renders the profile as indented JSON.
func (p *Profile) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}
