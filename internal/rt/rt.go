// Package rt defines the contract between the public jade package and the
// execution substrates (internal/exec/smp, internal/exec/dist,
// internal/exec/live). A Jade
// program is written once against the TC interface; the paper's portability
// claim — the same program runs unmodified on shared-memory machines,
// message-passing machines and heterogeneous workstation networks — becomes
// the statement that every Exec implementation executes the same TC calls
// with the same results.
package rt

import (
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// Counters are the always-on execution counters every executor maintains
// regardless of trace mode: they are cheap plain accumulators, so the
// public metrics report can state makespan, task counts and per-machine
// busy time even for untraced runs.
type Counters struct {
	// TasksRun counts executed task bodies, including inlined children and
	// the main program.
	TasksRun int
	// Busy is per-machine (per processor slot on the shared-memory
	// executor) time spent holding the processor.
	Busy []time.Duration
}

// DeltaStats summarizes the delta-transfer and message-coalescing layer.
type DeltaStats struct {
	// FullTransfers and FullBytes count object transfers shipped as
	// complete wire images (no usable shadow at the destination, or the
	// patch would not have been smaller).
	FullTransfers int
	FullBytes     int64
	// DeltaTransfers and DeltaBytes count transfers satisfied as patches
	// against the destination's shadow; SavedBytes is the full-image bytes
	// those patches avoided.
	DeltaTransfers int
	DeltaBytes     int64
	SavedBytes     int64
	// CoalescedDispatches counts task-dispatch control messages folded into
	// an object transfer on the same link instead of sent standalone.
	CoalescedDispatches int
}

// WorkerSlots is the coordinator's slot-accounting view of one worker:
// the capacity it advertised at handshake against the tasks currently
// charged to it. Surfaced through the metrics report so quota starvation —
// a worker with zero Free while its siblings idle — is debuggable rather
// than invisible.
type WorkerSlots struct {
	Machine int    // machine index (1-based)
	Name    string // worker's advertised name
	State   string // membership state: active, draining, dead, left
	Slots   int    // task slots advertised in the hello
	Held    int    // tasks dispatched here and not yet retired
	Free    int    // max(0, Slots-Held); held RPC-yielded slots count as free
}

// Stats are the sections of the metrics report that only a message-passing
// executor can fill. The shared-memory executor returns the zero value; a
// section an executor does not have (virtual time on a live run, worker
// slots on a simulated one) stays zero.
type Stats struct {
	// Makespan is the virtual time at which the program finished, on an
	// executor that runs in virtual time.
	Makespan time.Duration
	// Net counts network transfers: modeled messages on a simulated run,
	// real frames on a live one.
	Net netmodel.Stats
	// Delta is the delta-transfer and dispatch-coalescing ledger.
	Delta DeltaStats
	// Fault counts injected or detected failures and the recovery work
	// they caused.
	Fault fault.Stats
	// ConvertedWords counts data words format-converted in transit between
	// heterogeneous machines.
	ConvertedWords int
	// Workers is per-worker slot accounting, in machine order.
	Workers []WorkerSlots
}

// TaskOpts carries per-task scheduling information (§4.5 low-level control
// plus the simulator's cost model). The zero value means: unlabeled, no
// modeled cost, any machine.
type TaskOpts struct {
	// Label names the task in traces and the task graph.
	Label string
	// Cost is the task body's computational work in abstract work units;
	// a machine of speed S executes it in Cost/S seconds of virtual time.
	// Ignored by the real shared-memory executor (real code takes real
	// time). Additional dynamic work can be charged with TC.Charge.
	Cost float64
	// Pin, when positive, pins the task to machine index Pin-1 (§4.5
	// explicit placement). Zero leaves placement to the scheduler.
	Pin int
	// RequireCap restricts scheduling to machines with a capability tag.
	RequireCap string
	// Kind names a registered task-kind constructor (internal/exec/live)
	// so the task can execute in a worker process that cannot share the
	// body closure. Tasks with a Kind may pass a nil body to Create.
	Kind string
	// KindArgs is the opaque argument blob handed to the kind
	// constructor on the executing worker.
	KindArgs []byte
}

// PinnedMachine returns the pinned machine index, if any.
func (o TaskOpts) PinnedMachine() (int, bool) {
	if o.Pin > 0 {
		return o.Pin - 1, true
	}
	return 0, false
}

// TC is the execution context handed to a running task body. All methods
// must be called from the task's own body (its goroutine or simulated
// process). Blocking methods suspend only this task; the executor keeps
// running other tasks.
type TC interface {
	// CoreTask returns the engine record for this task.
	CoreTask() *core.Task
	// Machine returns the index of the machine (or processor slot)
	// currently executing the task.
	Machine() int

	// Access acquires a checked view of obj for immediate mode m and
	// returns the machine-local value (a slice; mutations through a Write
	// view update the object). It blocks until the access is legal.
	Access(obj access.ObjectID, m access.Mode) (any, error)
	// EndAccess releases a view acquired by Access. Required before
	// creating a child whose declaration conflicts with the view.
	EndAccess(obj access.ObjectID, m access.Mode)
	// ClearAccess releases all views this task holds on obj.
	ClearAccess(obj access.ObjectID)
	// Convert promotes deferred rights to immediate (with-cont rd/wr),
	// blocking until the rights are available. which selects the deferred
	// bits (DeferredRead, DeferredWrite or both).
	Convert(obj access.ObjectID, which access.Mode) error
	// Retract drops rights (with-cont no_rd/no_wr). which selects kinds:
	// access.AnyRead for no_rd, access.AnyWrite for no_wr.
	Retract(obj access.ObjectID, which access.Mode) error

	// Create runs a withonly-do construct: declare a child task. The body
	// executes asynchronously once its declarations are enabled. Create may
	// block on the executor's task-creation throttle.
	Create(decls []access.Decl, opts TaskOpts, body func(TC)) error
	// Alloc allocates a shared object holding initial (a supported slice
	// kind, see internal/format) and returns its global identifier. The
	// calling task gets implicit read/write rights on it.
	Alloc(initial any, label string) (access.ObjectID, error)
	// Charge adds dynamic computational work to the current task (virtual
	// time in the simulator; no-op on real hardware).
	Charge(work float64)
}

// Exec executes Jade programs.
type Exec interface {
	// Run executes the main program and returns once every task has
	// completed. It returns the first specification violation or internal
	// error, if any.
	Run(root func(TC)) error
	// Engine returns the dependency engine (for statistics).
	Engine() *core.Engine
	// Log returns the execution trace (the bounded always-on stream, or
	// the full log when tracing was requested).
	Log() *trace.Log
	// Counters returns the always-on execution counters. Valid after Run.
	Counters() Counters
	// Stats returns the message-passing sections of the metrics report.
	// It is a snapshot for after Run or for a metrics scrape, not a
	// per-task call.
	Stats() Stats
	// ObjectValue returns an object's final value after Run (the owner
	// machine's version). It is intended for result verification.
	ObjectValue(obj access.ObjectID) any
}
