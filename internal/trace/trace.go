// Package trace records what the Jade runtime did: task lifecycle events,
// object motion between machines, messages and format conversions. The
// benchmark harness renders these into the paper's artifacts: the dynamic
// task graph of Figure 4 and the execution narrative of Figure 7. Tasks
// rebuilds each task's lifecycle from them, the one reading of the stream
// that every other view of a run shares.
package trace

import (
	"fmt"
	"hash/maphash"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/core"
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
// stay bounded no matter how long the program runs, and a short run should
// not pay for the bound: the ring holds only the blocks its events have
// filled. Overwritten events are counted, and Snapshot reports the count.
//
// The log does not store Events. It stores records: the same fields with
// the narrow ones narrowed and the label replaced by an index into a
// per-log table holding each distinct label once. A record has no
// pointers, so the GC never scans the ring, and Events decodes records
// back into Events. Records live in fixed-size blocks, allocated as
// records arrive and never copied: record p of the log (or of the ring's
// storage) is blocks[p/blockLen][p%blockLen].
type Log struct {
	mu      sync.Mutex
	blocks  [][]record
	n       int    // records held; in a full ring, n == cap
	cap     int    // 0 = unbounded
	head    int    // ring position of the oldest record once n == cap
	dropped uint64 // records overwritten in ring mode

	// labels[i] is the label of records whose label field is i; labels[0]
	// is "". index is an open-addressed hash set of the indices ≥ 1, at
	// most half full, so a lookup is one hash and about one probe.
	labels []string
	index  []uint32
	seed   maphash.Seed
	// recent caches label indices by the address of the label's bytes.
	// An executor passes the same label string with each of a task's
	// events, so all but the first find it here without hashing.
	recent [256]uint32
}

// record is one stored event: an Event without pointers, in 56 bytes
// instead of 88 (TestRecordPointerFree pins both). Machine indices are
// int32 and byte counts uint32, the wire's length limit; wider values
// saturate.
type record struct {
	at                  time.Duration
	task, other, object uint64
	src, dst            int32
	bytes, saved        uint32
	label               uint32
	kind                uint8
}

// New returns an empty unbounded log.
func New() *Log {
	return &Log{seed: maphash.MakeSeed(), labels: []string{""}, index: make([]uint32, minIndex)}
}

// minIndex is the label hash set's initial size.
const minIndex = 16

// blockLen is the number of records in a block: 224 KiB, so live's 2^12
// ring is exactly one block.
const blockLen = 1 << 12

// NewRing returns a log bounded to the newest cap events (cap <= 0 falls
// back to unbounded). Its storage grows a block at a time as events
// arrive, up to ⌈cap/blockLen⌉ blocks, and then wraps in place: a run
// pays for the events it records, and no record is ever copied under the
// log's lock.
func NewRing(cap int) *Log {
	l := New()
	l.cap = max(cap, 0)
	return l
}

// Add appends an event.
func (l *Log) Add(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	var label uint32
	if ev.Label != "" {
		label = l.internLocked(ev.Label)
	}
	r := l.nextLocked()
	r.at, r.kind = ev.At, uint8(ev.Kind)
	r.task, r.other, r.object = ev.Task, ev.Other, ev.Object
	r.src, r.dst = narrowInt32(ev.Src), narrowInt32(ev.Dst)
	r.bytes, r.saved = narrowUint32(ev.Bytes), narrowUint32(ev.Saved)
	r.label = label
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
		*l.nextLocked() = record{at: at, kind: uint8(Depend), task: uint64(d.Earlier.ID), other: uint64(later.ID), object: uint64(d.Object)}
	}
	l.mu.Unlock()
}

// nextLocked returns the slot for the next record, every field of which
// the caller overwrites: a fresh one, or in a full ring the oldest.
func (l *Log) nextLocked() *record {
	p := l.n
	if l.cap > 0 && l.n == l.cap {
		p = l.head
		l.head++
		if l.head == l.cap {
			l.head = 0
		}
		l.dropped++
	} else {
		l.n++
	}
	if p/blockLen == len(l.blocks) {
		// A ring's last block holds only what its capacity leaves over.
		size := blockLen
		if l.cap > 0 {
			size = min(size, l.cap-p)
		}
		l.blocks = append(l.blocks, make([]record, size))
	}
	return l.at(p)
}

// at returns the record at storage position p.
func (l *Log) at(p int) *record {
	return &l.blocks[p/blockLen][p%blockLen]
}

// internLocked returns s's index in the label table, adding it if it is
// new; s is not "". A ring's table is rebuilt from the retained records
// before it passes twice the ring's capacity, so labels the ring no
// longer holds do not accumulate.
func (l *Log) internLocked(s string) uint32 {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	slot := (p>>4 ^ p>>12) % uintptr(len(l.recent))
	if j := l.recent[slot]; l.labels[j] == s {
		return j
	}
	h := maphash.String(l.seed, s)
	mask := uint64(len(l.index) - 1)
	for i := h & mask; l.index[i] != 0; i = (i + 1) & mask {
		if j := l.index[i]; l.labels[j] == s {
			l.recent[slot] = j
			return j
		}
	}
	if l.cap > 0 && len(l.labels) > 2*l.cap {
		l.compactLabelsLocked()
	}
	j := uint32(len(l.labels))
	if len(l.labels) == cap(l.labels) {
		// Double, where append would grow a large slice by a quarter: a
		// run's labels then cost twice their headers, not five times.
		l.labels = append(make([]string, 0, 2*len(l.labels)), l.labels...)
	}
	l.labels = append(l.labels, s)
	if 2*len(l.labels) > len(l.index) {
		l.reindexLocked()
	} else {
		l.insertLocked(j, h)
	}
	l.recent[slot] = j
	return j
}

// insertLocked puts label index j, whose label hashes to h, into the
// first free slot of its probe sequence.
func (l *Log) insertLocked(j uint32, h uint64) {
	mask := uint64(len(l.index) - 1)
	i := h & mask
	for l.index[i] != 0 {
		i = (i + 1) & mask
	}
	l.index[i] = j
}

// reindexLocked rebuilds the hash set at the smallest power-of-two size
// that keeps it at most half full.
func (l *Log) reindexLocked() {
	n := minIndex
	for n < 2*len(l.labels) {
		n *= 2
	}
	l.index = make([]uint32, n)
	for j := 1; j < len(l.labels); j++ {
		l.insertLocked(uint32(j), maphash.String(l.seed, l.labels[j]))
	}
}

// compactLabelsLocked keeps only the labels the retained records use,
// renumbering the records to match.
func (l *Log) compactLabelsLocked() {
	old := l.labels
	renum := make([]uint32, len(old))
	l.labels = []string{""}
	for p := 0; p < l.n; p++ {
		r := l.at(p)
		if r.label == 0 {
			continue
		}
		if renum[r.label] == 0 {
			renum[r.label] = uint32(len(l.labels))
			l.labels = append(l.labels, old[r.label])
		}
		r.label = renum[r.label]
	}
	l.recent = [len(l.recent)]uint32{}
	l.reindexLocked()
}

func narrowInt32(v int) int32 {
	return int32(max(math.MinInt32, min(v, math.MaxInt32)))
}

func narrowUint32(v int) uint32 {
	if v < 0 {
		return 0
	}
	return uint32(min(uint64(v), math.MaxUint32))
}

// unpackLocked decodes r back into the Event it was packed from.
func (l *Log) unpackLocked(r *record) Event {
	return Event{
		At: r.at, Kind: Kind(r.kind),
		Task: r.task, Other: r.other, Object: r.object,
		Src: int(r.src), Dst: int(r.dst),
		Bytes: int(r.bytes), Saved: int(r.saved),
		Label: l.labels[r.label],
	}
}

// Events returns a copy of all retained events in append order.
func (l *Log) Events() []Event {
	events, _ := l.Snapshot()
	return events
}

// Snapshot returns the retained events in append order together with how
// many events a ring log overwrote before the first of them (0 for
// unbounded logs; nonzero means derived profiles are partial). Both are
// read under one acquisition of the lock, so a snapshot taken while the
// log is being written never pairs a window with a later drop count.
func (l *Log) Snapshot() (events []Event, dropped uint64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n > 0 {
		events = make([]Event, 0, l.n)
		l.eachLocked(func(ev Event) { events = append(events, ev) })
	}
	return events, l.dropped
}

// Each calls yield with each retained event in append order, under the
// log's lock and without copying the window: yield must not touch the log.
func (l *Log) Each(yield func(Event)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.eachLocked(yield)
}

func (l *Log) eachLocked(yield func(Event)) {
	for i := 0; i < l.n; i++ {
		p := l.head + i
		if p >= l.n {
			p -= l.n
		}
		yield(l.unpackLocked(l.at(p)))
	}
}

// Handoff moves l's record blocks and label storage into a new, empty log
// of the same capacity, leaving l empty but usable (a late Add grows
// storage of its own) and counting what it gave up as dropped: whoever
// still holds l sees a truncated window and never what the new log
// records.
func (l *Log) Handoff() *Log {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.labels[1:])
	clear(l.index)
	n := &Log{cap: l.cap, blocks: l.blocks, labels: l.labels[:1], index: l.index, seed: l.seed}
	l.dropped += uint64(l.n)
	l.blocks, l.n, l.head = nil, 0, 0
	l.labels, l.index, l.recent = []string{""}, make([]uint32, minIndex), [len(l.recent)]uint32{}
	return n
}

// Filter returns the events of one kind, in order.
func (l *Log) Filter(k Kind) []Event {
	var out []Event
	l.Each(func(ev Event) {
		if ev.Kind == k {
			out = append(out, ev)
		}
	})
	return out
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// TaskGraphDOT renders the dynamic task graph (Depend events plus task
// labels from TaskCreated events) in Graphviz DOT format — the paper's
// Figure 4.
func TaskGraphDOT(l *Log, title string) string {
	labels := map[uint64]string{}
	var order []uint64
	type edge struct{ from, to uint64 }
	seen := map[edge]bool{}
	var edges []edge
	l.Each(func(ev Event) {
		switch ev.Kind {
		case TaskCreated:
			name := ev.Label
			if name == "" {
				name = fmt.Sprintf("task %d", ev.Task)
			}
			if _, ok := labels[ev.Task]; !ok {
				order = append(order, ev.Task)
			}
			labels[ev.Task] = name
		case Depend:
			e := edge{ev.Task, ev.Other}
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
	})
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
	byMachine := map[int][]TaskLife{}
	for _, t := range Tasks(l.Each) {
		if t.HasStarted {
			byMachine[t.Machine] = append(byMachine[t.Machine], t)
		}
	}
	machines := make([]int, 0, len(byMachine))
	for m := range byMachine {
		machines = append(machines, m)
	}
	sort.Ints(machines)
	var b strings.Builder
	for _, m := range machines {
		ts := byMachine[m]
		sort.SliceStable(ts, func(i, j int) bool { return ts[i].Started < ts[j].Started })
		fmt.Fprintf(&b, "machine %d:", m)
		for _, t := range ts {
			lbl := t.Label
			if lbl == "" {
				lbl = fmt.Sprintf("task %d", t.ID)
			}
			fmt.Fprintf(&b, " [%v..%v %s]", t.Started, t.Completed, lbl)
		}
		b.WriteString("\n")
	}
	return b.String()
}
