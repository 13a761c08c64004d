package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/trace"
)

// chromeEvent is one entry of the Chrome trace-event format — the JSON
// consumed by chrome://tracing and https://ui.perfetto.dev. Field order
// is fixed and map args are sorted by encoding/json, so the export is
// byte-deterministic for a deterministic event stream.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// phaseRank orders same-timestamp events: metadata first; slice ends
// before begins so adjacent slices on a lane never look overlapped; and
// flow starts before flow finishes so an arrow binding two lanes at the
// same instant is well-formed in file order.
func phaseRank(ph string) int {
	switch ph {
	case "M":
		return 0
	case "E":
		return 1
	case "s":
		return 2
	case "f":
		return 4
	case "B":
		return 5
	}
	return 3
}

// laneAssign packs each machine's tasks into lanes (Perfetto tids) so
// that tasks live at the same time never share a row — the lane is the
// task's reconstructed worker slot. Lane 0 is reserved for the
// machine's net track; task lanes start at 1, and lanes[i] is tasks[i]'s.
// Deterministic: tasks are placed in (start, id) order onto the lowest
// free lane.
func laneAssign(tasks []trace.TaskLife) (lanes []int, laneCount map[int]int) {
	byMachine := map[int][]int{}
	for i := range tasks {
		byMachine[tasks[i].Machine] = append(byMachine[tasks[i].Machine], i)
	}
	lanes = make([]int, len(tasks))
	laneCount = map[int]int{}
	for m, is := range byMachine {
		sort.Slice(is, func(a, b int) bool {
			sa, _ := tasks[is[a]].Span()
			sb, _ := tasks[is[b]].Span()
			if sa != sb {
				return sa < sb
			}
			return tasks[is[a]].ID < tasks[is[b]].ID
		})
		var laneEnd []time.Duration
		for _, i := range is {
			start, end := tasks[i].Span()
			placed := false
			for li, le := range laneEnd {
				if le <= start {
					lanes[i] = li + 1
					laneEnd[li] = end
					placed = true
					break
				}
			}
			if !placed {
				laneEnd = append(laneEnd, end)
				lanes[i] = len(laneEnd)
			}
		}
		laneCount[m] = len(laneEnd)
	}
	return lanes, laneCount
}

// WriteChrome renders the event stream as Chrome-trace/Perfetto JSON:
//
//   - one process (pid) per machine, with the coordinator named;
//   - one thread (tid) per reconstructed execution lane (slot), lane 0
//     reserved for the machine's net track;
//   - per retired task, a slice per phase (queue, fetch, exec — named by
//     the task's label — and commit), complete "X" slices by default or
//     "B"/"E" pairs with Options.BeginEnd;
//   - flow arrows ("s"/"f") from the sender's net lane into the
//     receiving task's slices for object transfers and coalesced
//     dispatches;
//   - counter tracks ("C") for outstanding tasks, busy lanes per
//     machine, and cumulative bytes received per machine;
//   - instant markers for crashes, violations and re-executions, and an
//     explicit truncation marker when the bounded ring dropped events.
func WriteChrome(w io.Writer, in Input, opt Options) error {
	events := append([]trace.Event(nil), in.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	tasks := trace.Tasks(each(events))
	lanes, laneCount := laneAssign(tasks)
	byID := make(map[uint64]int, len(tasks))
	for i := range tasks {
		byID[tasks[i].ID] = i
	}

	var out []chromeEvent
	emit := func(ev chromeEvent) { out = append(out, ev) }

	// Process and thread metadata.
	procName := in.Process
	if procName == "" {
		procName = "jade"
	}
	machines := make([]int, 0, len(laneCount))
	for m := range laneCount {
		machines = append(machines, m)
	}
	sort.Ints(machines)
	for _, m := range machines {
		name := fmt.Sprintf("%s: machine %d", procName, m)
		if m == 0 {
			name = fmt.Sprintf("%s: machine 0 (coordinator)", procName)
		}
		emit(chromeEvent{Ph: "M", Name: "process_name", Pid: m, Args: map[string]any{"name": name}})
		emit(chromeEvent{Ph: "M", Name: "process_sort_index", Pid: m, Args: map[string]any{"sort_index": m}})
		emit(chromeEvent{Ph: "M", Name: "thread_name", Pid: m, Tid: 0, Args: map[string]any{"name": "net"}})
		for l := 1; l <= laneCount[m]; l++ {
			emit(chromeEvent{Ph: "M", Name: "thread_name", Pid: m, Tid: l,
				Args: map[string]any{"name": fmt.Sprintf("slot %d", l)}})
		}
	}

	// Phase slices.
	slice := func(name string, start, end time.Duration, i int, phase string) {
		t := &tasks[i]
		args := map[string]any{"task": t.ID, "phase": phase}
		if t.Label != "" {
			args["label"] = t.Label
		}
		// Zero-duration slices stay X even in B/E mode: the global sort
		// orders slice ends before same-timestamp begins, which would
		// flip a degenerate pair into E-before-B.
		if opt.BeginEnd && end > start {
			emit(chromeEvent{Ph: "B", Name: name, Ts: usOf(start), Pid: t.Machine, Tid: lanes[i], Args: args})
			emit(chromeEvent{Ph: "E", Name: name, Ts: usOf(end), Pid: t.Machine, Tid: lanes[i]})
			return
		}
		emit(chromeEvent{Ph: "X", Name: name, Ts: usOf(start), Dur: usOf(end - start),
			Pid: t.Machine, Tid: lanes[i], Args: args})
	}
	for i := range tasks {
		t := &tasks[i]
		execName := t.Label
		if execName == "" {
			execName = fmt.Sprintf("task %d", t.ID)
		}
		if t.HasQueue {
			slice("queue", t.QueueStart, t.QueueEnd(), i, "queue")
		}
		if t.HasFetch {
			slice("fetch", t.FetchStart, t.Fetched, i, "fetch")
		}
		slice(execName, t.ExecStart, t.ExecEnd, i, "exec")
		if t.HasCommit {
			slice("commit", t.ExecEnd, t.CommitEnd, i, "commit")
		}
	}

	// Flow arrows: object transfers and coalesced dispatches, each a
	// thin send slice on the source's net lane bound to the receiving
	// task's slice.
	var flowID uint64
	if !opt.NoFlows {
		for _, ev := range events {
			var kind string
			switch ev.Kind {
			case trace.ObjectMoved:
				kind = "move"
			case trace.ObjectCopied:
				kind = "copy"
			case trace.ObjectPatched:
				kind = "delta"
			case trace.DispatchCoalesced:
				kind = "dispatch"
			default:
				continue
			}
			i, ok := byID[ev.Task]
			if !ok || tasks[i].Machine != ev.Dst {
				continue // no receiving slice to bind (e.g. write-back to the coordinator)
			}
			t := &tasks[i]
			flowID++
			name := fmt.Sprintf("%s obj %d", kind, ev.Object)
			if kind == "dispatch" {
				name = "dispatch (coalesced)"
			}
			args := map[string]any{"object": ev.Object, "bytes": ev.Bytes, "task": ev.Task}
			if kind == "dispatch" {
				delete(args, "object")
			}
			// The arrow lands inside the task's fetch slice when the
			// transfer fed the fetch, else inside the exec slice.
			landTs := ev.At
			start, end := t.Span()
			if landTs < start {
				landTs = start
			}
			if landTs > end {
				landTs = end
			}
			srcTs := ev.At
			if srcTs > landTs {
				srcTs = landTs
			}
			emit(chromeEvent{Ph: "X", Name: name, Ts: usOf(srcTs), Pid: ev.Src, Tid: 0, Args: args})
			emit(chromeEvent{Ph: "s", Name: kind, ID: flowID, Ts: usOf(srcTs), Pid: ev.Src, Tid: 0})
			emit(chromeEvent{Ph: "f", Name: kind, ID: flowID, BP: "e", Ts: usOf(landTs), Pid: ev.Dst, Tid: lanes[i]})
		}
	}

	// Counter tracks.
	if !opt.NoCounters {
		type delta struct {
			at time.Duration
			d  int64
		}
		counter := func(name string, pid int, key string, deltas []delta) {
			sort.SliceStable(deltas, func(i, j int) bool { return deltas[i].at < deltas[j].at })
			var val int64
			for i, d := range deltas {
				val += d.d
				if i+1 < len(deltas) && deltas[i+1].at == d.at {
					continue // coalesce same-timestamp changes into one sample
				}
				emit(chromeEvent{Ph: "C", Name: name, Ts: usOf(d.at), Pid: pid,
					Args: map[string]any{key: val}})
			}
		}
		var outstanding []delta
		busy := map[int][]delta{}
		for i := range tasks {
			t := &tasks[i]
			start, end := t.Span()
			outstanding = append(outstanding, delta{start, 1}, delta{end, -1})
			busy[t.Machine] = append(busy[t.Machine], delta{t.ExecStart, 1}, delta{t.ExecEnd, -1})
		}
		counter("tasks outstanding", 0, "tasks", outstanding)
		bytesIn := map[int][]delta{}
		for _, ev := range events {
			switch ev.Kind {
			case trace.ObjectMoved, trace.ObjectCopied, trace.ObjectPatched, trace.MessageSent:
				if ev.Bytes > 0 {
					bytesIn[ev.Dst] = append(bytesIn[ev.Dst], delta{ev.At, int64(ev.Bytes)})
				}
			}
		}
		for _, m := range machines {
			counter(fmt.Sprintf("busy slots m%d", m), m, "slots", busy[m])
			counter(fmt.Sprintf("bytes in m%d", m), m, "bytes", bytesIn[m])
		}
	}

	// Narrative instants: crashes, violations, re-executions.
	for _, ev := range events {
		switch ev.Kind {
		case trace.MachineCrashed, trace.CrashDetected, trace.Violation, trace.TaskReexecuted:
			emit(chromeEvent{Ph: "i", Name: fmt.Sprintf("%v %s", ev.Kind, ev.Label),
				Ts: usOf(ev.At), Pid: ev.Dst, Tid: 0, S: "p"})
		}
	}

	// Truncation marker: the ring overwrote events, so everything before
	// the retained window is missing — say so in the trace itself.
	if in.Dropped > 0 {
		var first time.Duration
		if len(events) > 0 {
			first = events[0].At
		}
		emit(chromeEvent{Ph: "i",
			Name: fmt.Sprintf("TRUNCATED: ring dropped %d earlier events", in.Dropped),
			Ts:   usOf(first), Pid: 0, Tid: 0, S: "g"})
	}

	// Deterministic global order: metadata first, then timestamp, then
	// phase rank (slice ends before begins, flow starts before
	// finishes), then lane.
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		ra, rb := phaseRank(a.Ph), phaseRank(b.Ph)
		if (ra == 0) != (rb == 0) {
			return ra == 0
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if ra != rb {
			return ra < rb
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		return a.Tid < b.Tid
	})

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range out {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(data); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"process\":%q,\"droppedEvents\":%d}}\n",
		procName, in.Dropped); err != nil {
		return err
	}
	return bw.Flush()
}
