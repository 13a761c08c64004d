// Package trace records what the Jade runtime did: task lifecycle events,
// object motion between machines, messages and format conversions. The
// benchmark harness renders these into the paper's artifacts — the dynamic
// task graph of Figure 4, the execution narrative of Figure 7, and the
// summary statistics behind Figures 9 and 10.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// Kind classifies an event.
type Kind int

const (
	// TaskCreated: a withonly-do construct executed.
	TaskCreated Kind = iota
	// TaskReady: the task's immediate declarations all became enabled.
	TaskReady
	// TaskAssigned: the scheduler placed the task on a machine.
	TaskAssigned
	// TaskStarted: the task body began executing.
	TaskStarted
	// TaskCompleted: the task body finished.
	TaskCompleted
	// ObjectMoved: an object migrated (write access; old copies invalid).
	ObjectMoved
	// ObjectCopied: an object was replicated for reading.
	ObjectCopied
	// ObjectInvalidated: a machine's copy was discarded.
	ObjectInvalidated
	// MessageSent: a network message (control or data).
	MessageSent
	// Converted: an object's data format was converted during a transfer.
	Converted
	// Violation: an access-specification violation was detected.
	Violation
	// Depend: a dynamic data dependence between two tasks was detected.
	Depend
	// ObjectPatched: an object re-fetch was satisfied by a delta transfer —
	// only the words changed since the receiver's stale shadow copy crossed
	// the network. Bytes is the patch size; Saved is the full wire image
	// size minus the patch size.
	ObjectPatched
	// DispatchCoalesced: a task-dispatch control message was piggybacked
	// onto the task's first object transfer from the same source instead of
	// being sent as its own message.
	DispatchCoalesced
	// MachineCrashed: machine Dst suffered a fail-stop crash (scripted by
	// the fault plan, or fenced by the failure detector — see Label).
	MachineCrashed
	// CrashDetected: the failure detector declared machine Dst dead after
	// its heartbeat probes went unanswered.
	CrashDetected
	// TaskReexecuted: a task in flight on a crashed machine (Src) was
	// re-placed on a surviving machine (Dst) and re-executed from its
	// declared read set — or deterministically replayed from logged inputs
	// (Label "replay ...") to re-derive a lost object version.
	TaskReexecuted
	// MessageRetried: a message attempt from Src to Dst was not delivered
	// (loss, partition, or unreachable peer) and will be retransmitted
	// after a backoff.
	MessageRetried
	// ObjectRebuilt: a directory entry pointing at a dead machine was
	// reconstructed — ownership promoted to a surviving copy, restored from
	// a shadow of the committed version, or re-derived by replaying the
	// owning task (see Label).
	ObjectRebuilt
	// TaskFetched: all of the task's immediately-declared objects are local
	// to its machine (the fetch/transfer-wait phase ended). Dst is the
	// machine.
	TaskFetched
	// TaskScheduled: the task claimed a processor on its machine. The span
	// from TaskScheduled to TaskCompleted is the processor time the task
	// occupies (dispatch overhead + body); the profiler uses it as the
	// task's critical-path weight.
	TaskScheduled
	// TaskCommitted: the task's completion was committed in the dependency
	// engine — its rights released and successor gates opened.
	TaskCommitted
)

var kindNames = map[Kind]string{
	TaskCreated:       "task-created",
	TaskReady:         "task-ready",
	TaskAssigned:      "task-assigned",
	TaskStarted:       "task-started",
	TaskCompleted:     "task-completed",
	ObjectMoved:       "object-moved",
	ObjectCopied:      "object-copied",
	ObjectInvalidated: "object-invalidated",
	MessageSent:       "message-sent",
	Converted:         "converted",
	Violation:         "violation",
	Depend:            "depend",
	ObjectPatched:     "object-patched",
	DispatchCoalesced: "dispatch-coalesced",
	MachineCrashed:    "machine-crashed",
	CrashDetected:     "crash-detected",
	TaskReexecuted:    "task-reexecuted",
	MessageRetried:    "message-retried",
	ObjectRebuilt:     "object-rebuilt",
	TaskFetched:       "task-fetched",
	TaskScheduled:     "task-scheduled",
	TaskCommitted:     "task-committed",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded occurrence. Fields not meaningful for a Kind are
// zero.
type Event struct {
	// At is the time since the start of the run (virtual time for the
	// simulated executor, wall time for the shared-memory executor).
	At time.Duration
	// Kind classifies the event.
	Kind Kind
	// Task is the acting task's ID (0 if none).
	Task uint64
	// Other is a second task for Depend events (the dependent task).
	Other uint64
	// Object is the object involved (0 if none).
	Object uint64
	// Src and Dst are machine indices for motion events (-1 if n/a).
	Src, Dst int
	// Bytes is the payload size for messages and transfers.
	Bytes int
	// Saved is the wire bytes a delta transfer avoided (ObjectPatched only:
	// full image size minus patch size).
	Saved int
	// Label carries task or object labels for rendering.
	Label string
}

// String renders the event compactly for narratives and debugging.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10v %-18v", e.At, e.Kind)
	if e.Task != 0 {
		fmt.Fprintf(&b, " task=%d", e.Task)
	}
	if e.Other != 0 {
		fmt.Fprintf(&b, " other=%d", e.Other)
	}
	if e.Object != 0 {
		fmt.Fprintf(&b, " obj=%d", e.Object)
	}
	if e.Kind == MessageSent || e.Kind == ObjectMoved || e.Kind == ObjectCopied || e.Kind == ObjectPatched {
		fmt.Fprintf(&b, " %d->%d (%dB)", e.Src, e.Dst, e.Bytes)
	}
	if e.Kind == ObjectPatched {
		fmt.Fprintf(&b, " saved=%dB", e.Saved)
	}
	if e.Label != "" {
		fmt.Fprintf(&b, " %q", e.Label)
	}
	return b.String()
}

// Log is an append-only event log. It is safe for concurrent use (the
// shared-memory executor appends from many goroutines). A nil *Log discards
// everything, so callers never need nil checks.
//
// A log built with NewRing keeps only the newest cap events: the executors
// run one at all times (the always-on profiling stream), so its memory must
// stay bounded no matter how long the program runs. Overwritten events are
// counted in Dropped.
type Log struct {
	mu      sync.Mutex
	events  []Event
	cap     int    // 0 = unbounded
	head    int    // ring start index (oldest event) once len(events) == cap
	dropped uint64 // events overwritten in ring mode
}

// New returns an empty unbounded log.
func New() *Log { return &Log{} }

// NewRing returns a log bounded to the newest cap events (cap <= 0 falls
// back to unbounded). The buffer is allocated up front: the ring is the
// always-on profiling stream, and growing it incrementally under the
// log mutex puts repeated large copies on every executor's hot path.
func NewRing(cap int) *Log {
	if cap <= 0 {
		return New()
	}
	return &Log{cap: cap, events: make([]Event, 0, cap)}
}

// Add appends an event.
func (l *Log) Add(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.addLocked(ev)
	l.mu.Unlock()
}

// AddDepends appends one Depend event per edge of the batch a Create
// reports (core.Hooks.Depend), all stamped at, under one acquisition of
// the log's lock.
func (l *Log) AddDepends(at time.Duration, later *core.Task, deps []core.Dep) {
	if l == nil {
		return
	}
	l.mu.Lock()
	for _, d := range deps {
		l.addLocked(Event{At: at, Kind: Depend, Task: uint64(d.Earlier.ID), Other: uint64(later.ID), Object: uint64(d.Object)})
	}
	l.mu.Unlock()
}

func (l *Log) addLocked(ev Event) {
	if l.cap > 0 && len(l.events) == l.cap {
		l.events[l.head] = ev
		l.head++
		if l.head == l.cap {
			l.head = 0
		}
		l.dropped++
	} else {
		l.events = append(l.events, ev)
	}
}

// Dropped returns how many events a ring log has overwritten (0 for
// unbounded logs). A nonzero count means derived profiles are partial.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Events returns a copy of all retained events in append order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head == 0 {
		return append([]Event(nil), l.events...)
	}
	out := make([]Event, 0, len(l.events))
	out = append(out, l.events[l.head:]...)
	out = append(out, l.events[:l.head]...)
	return out
}

// Filter returns the events of one kind, in order.
func (l *Log) Filter(k Kind) []Event {
	var out []Event
	for _, ev := range l.Events() {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Summary aggregates a log into the counters the benchmark tables report.
type Summary struct {
	// Makespan is the time of the last event.
	Makespan time.Duration
	// TasksRun counts completed tasks.
	TasksRun int
	// Messages and MessageBytes count network messages.
	Messages     int
	MessageBytes int64
	// ObjectsMoved and ObjectsCopied count object transfers.
	ObjectsMoved  int
	ObjectsCopied int
	// ObjectsPatched counts transfers satisfied as deltas (only the words
	// changed since the receiver's shadow copy were sent), and
	// DeltaBytesSaved the wire bytes those deltas avoided.
	ObjectsPatched  int
	DeltaBytesSaved int64
	// CoalescedDispatches counts task-dispatch control messages piggybacked
	// onto object transfers instead of sent standalone.
	CoalescedDispatches int
	// BytesByObject breaks message bytes down per object (object-tagged
	// messages only; dispatch and other control traffic has no object).
	BytesByObject map[uint64]int64
	// ConvertedWords counts data words format-converted in transit.
	ConvertedWords int
	// BusyTime is per-machine sum of task execution spans.
	BusyTime map[int]time.Duration
	// Violations counts detected specification violations.
	Violations int
	// MachinesCrashed, CrashesDetected, TasksReexecuted, MessagesRetried
	// and ObjectsRebuilt count the fault-injection and recovery events of a
	// faulty simulated run (zero on fault-free runs).
	MachinesCrashed int
	CrashesDetected int
	TasksReexecuted int
	MessagesRetried int
	ObjectsRebuilt  int
	// Fault holds the fault layer's own counters (message loss/duplication
	// injected, retransmissions, replays, recovery time). Zero unless the
	// run had a fault plan and the summary was built by the jade runtime.
	Fault fault.Stats
	// Engine holds the dependency engine's own counters (task counts,
	// waits, queue-lock acquisitions, blocked wakeups). Zero unless the
	// summary was built with SummarizeWithEngine.
	Engine core.Stats
}

// Summarize computes a Summary from the log.
func Summarize(l *Log) Summary {
	s := Summary{BusyTime: map[int]time.Duration{}, BytesByObject: map[uint64]int64{}}
	started := map[uint64]Event{}
	for _, ev := range l.Events() {
		if ev.At > s.Makespan {
			s.Makespan = ev.At
		}
		switch ev.Kind {
		case TaskStarted:
			started[ev.Task] = ev
		case TaskCompleted:
			s.TasksRun++
			if st, ok := started[ev.Task]; ok {
				s.BusyTime[st.Dst] += ev.At - st.At
			}
		case MessageSent:
			s.Messages++
			s.MessageBytes += int64(ev.Bytes)
			if ev.Object != 0 {
				s.BytesByObject[ev.Object] += int64(ev.Bytes)
			}
		case ObjectMoved:
			s.ObjectsMoved++
		case ObjectCopied:
			s.ObjectsCopied++
		case ObjectPatched:
			s.ObjectsPatched++
			s.DeltaBytesSaved += int64(ev.Saved)
		case DispatchCoalesced:
			// The dispatch bytes crossed the wire inside an object message,
			// so they count toward byte totals but not the message count —
			// saving the message is the point of coalescing.
			s.CoalescedDispatches++
			s.MessageBytes += int64(ev.Bytes)
		case Converted:
			s.ConvertedWords += ev.Bytes
		case Violation:
			s.Violations++
		case MachineCrashed:
			s.MachinesCrashed++
		case CrashDetected:
			s.CrashesDetected++
		case TaskReexecuted:
			s.TasksReexecuted++
		case MessageRetried:
			s.MessagesRetried++
		case ObjectRebuilt:
			s.ObjectsRebuilt++
		}
	}
	return s
}

// SummarizeWithEngine computes a Summary from the log and attaches a
// snapshot of the dependency engine's counters, so runtime synchronization
// traffic (lock acquisitions, blocked wakeups) is reported alongside the
// trace-derived statistics.
func SummarizeWithEngine(l *Log, es core.Stats) Summary {
	s := Summarize(l)
	s.Engine = es
	return s
}

// TaskGraphDOT renders the dynamic task graph (Depend events plus task
// labels from TaskCreated events) in Graphviz DOT format — the paper's
// Figure 4.
func TaskGraphDOT(l *Log, title string) string {
	labels := map[uint64]string{}
	var order []uint64
	for _, ev := range l.Events() {
		if ev.Kind == TaskCreated {
			name := ev.Label
			if name == "" {
				name = fmt.Sprintf("task %d", ev.Task)
			}
			if _, ok := labels[ev.Task]; !ok {
				order = append(order, ev.Task)
			}
			labels[ev.Task] = name
		}
	}
	type edge struct{ from, to uint64 }
	seen := map[edge]bool{}
	var edges []edge
	for _, ev := range l.Events() {
		if ev.Kind != Depend {
			continue
		}
		e := edge{ev.Task, ev.Other}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=TB;\n  node [shape=box];\n")
	for _, id := range order {
		fmt.Fprintf(&b, "  t%d [label=%q];\n", id, labels[id])
	}
	for _, e := range edges {
		fmt.Fprintf(&b, "  t%d -> t%d;\n", e.from, e.to)
	}
	b.WriteString("}\n")
	return b.String()
}

// Gantt renders a per-machine text timeline of task executions: one line
// per machine, showing [start end label] spans in time order.
func Gantt(l *Log) string {
	type span struct {
		start, end time.Duration
		label      string
	}
	starts := map[uint64]Event{}
	byMachine := map[int][]span{}
	for _, ev := range l.Events() {
		switch ev.Kind {
		case TaskStarted:
			starts[ev.Task] = ev
		case TaskCompleted:
			if st, ok := starts[ev.Task]; ok {
				lbl := st.Label
				if lbl == "" {
					lbl = fmt.Sprintf("task %d", ev.Task)
				}
				byMachine[st.Dst] = append(byMachine[st.Dst], span{st.At, ev.At, lbl})
			}
		}
	}
	machines := make([]int, 0, len(byMachine))
	for m := range byMachine {
		machines = append(machines, m)
	}
	sort.Ints(machines)
	var b strings.Builder
	for _, m := range machines {
		spans := byMachine[m]
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		fmt.Fprintf(&b, "machine %d:", m)
		for _, s := range spans {
			fmt.Fprintf(&b, " [%v..%v %s]", s.start, s.end, s.label)
		}
		b.WriteString("\n")
	}
	return b.String()
}
