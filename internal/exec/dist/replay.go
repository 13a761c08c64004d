package dist

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/rt"
)

// inputLog records, per task, the value of each object as the task first
// observed it (sender-based logging). A task is a pure function of its
// declared read set, so replaying a committed task's body against its log
// re-derives, bit for bit, any generation it wrote — even after every copy
// of its output died with a machine. Only the first encounter per (task,
// object) is kept: a re-executed attempt re-fetches the same committed
// generations, so the first snapshot stays valid.
//
// Logged values are immutable (replay clones before running the body), so
// every task that observes an object at the same generation shares one
// clone of it.
type inputLog struct {
	byTask map[core.TaskID]map[access.ObjectID]any
	// latest is the shared clone of each object's most recently logged
	// generation. A generation's contents are unique — the directory bumps
	// the version on every write grant — except across a Rollback, after
	// which the object must be forgotten.
	latest map[access.ObjectID]versioned
}

type versioned struct {
	ver uint64
	val any
}

func newInputLog() *inputLog {
	return &inputLog{
		byTask: map[core.TaskID]map[access.ObjectID]any{},
		latest: map[access.ObjectID]versioned{},
	}
}

// logged reports whether task t already has a snapshot of obj.
func (l *inputLog) logged(t core.TaskID, obj access.ObjectID) bool {
	_, ok := l.byTask[t][obj]
	return ok
}

// log records that task t observed obj at generation ver holding val,
// unless t already logged obj. val is cloned at most once per generation.
func (l *inputLog) log(t core.TaskID, obj access.ObjectID, ver uint64, val any) {
	if l.logged(t, obj) {
		return
	}
	s, ok := l.latest[obj]
	if !ok || s.ver != ver {
		s = versioned{ver: ver, val: format.Clone(val)}
		l.latest[obj] = s
	}
	l.put(t, obj, s.val)
}

// logFresh records a value that is no generation of obj — the zeroed
// buffer of a write-only grant — unless t already logged obj. The log
// keeps val itself: the caller hands over a value nothing else references.
func (l *inputLog) logFresh(t core.TaskID, obj access.ObjectID, val any) {
	if !l.logged(t, obj) {
		l.put(t, obj, val)
	}
}

func (l *inputLog) put(t core.TaskID, obj access.ObjectID, val any) {
	ins := l.byTask[t]
	if ins == nil {
		ins = map[access.ObjectID]any{}
		l.byTask[t] = ins
	}
	ins[obj] = val
}

// inputs returns task t's snapshots (nil if it logged nothing). Read-only.
func (l *inputLog) inputs(t core.TaskID) map[access.ObjectID]any { return l.byTask[t] }

// forget drops the shared clone of obj: after a directory Rollback its
// generation numbers will be reused for re-derived contents.
func (l *inputLog) forget(obj access.ObjectID) { delete(l.latest, obj) }

// replay re-derives the contents of obj by re-running the body of its
// committed writer t against clones of t's logged inputs, as if on the
// given machine. The body mutates the clones in place, so the log stays
// pristine for further replays. charge, if non-nil, receives the body's
// dynamic work (rt.TC.Charge) so it can be billed in virtual time. A
// panicking body is an error, not a crash of the recovery pass.
func replay(t *core.Task, machine int, inputs map[access.ObjectID]any, body func(rt.TC), charge func(work float64), obj access.ObjectID) (out any, err error) {
	if inputs == nil {
		return nil, fmt.Errorf("task %d left no input log to replay", t.ID)
	}
	rc := &replayCtx{t: t, machine: machine, charge: charge, vals: make(map[access.ObjectID]any, len(inputs))}
	for o, v := range inputs {
		rc.vals[o] = format.Clone(v)
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("replay of task %d (%v) panicked: %v", t.ID, t.Seq, r)
		}
	}()
	body(rc)
	out, ok := rc.vals[obj]
	if !ok {
		return nil, fmt.Errorf("replay of task %d produced no value for object #%d", t.ID, obj)
	}
	return out, nil
}

// replayCtx is the minimal rt.TC a replayed body runs under. Accesses are
// served from the logged input snapshots; the engine operations are no-ops
// (the task already committed once — its rights were checked then); the
// structural operations cannot be replayed — bodies that perform them are
// beyond this recovery scheme, and hitting one fails the run descriptively
// rather than diverging.
type replayCtx struct {
	t       *core.Task
	machine int
	charge  func(float64)
	vals    map[access.ObjectID]any
}

func (rc *replayCtx) CoreTask() *core.Task { return rc.t }
func (rc *replayCtx) Machine() int         { return rc.machine }

func (rc *replayCtx) Access(obj access.ObjectID, _ access.Mode) (any, error) {
	v, ok := rc.vals[obj]
	if !ok {
		return nil, fmt.Errorf("replay of task %d: access to object #%d outside the logged input set", rc.t.ID, obj)
	}
	return v, nil
}

func (rc *replayCtx) EndAccess(access.ObjectID, access.Mode) {}
func (rc *replayCtx) ClearAccess(access.ObjectID)            {}

func (rc *replayCtx) Convert(access.ObjectID, access.Mode) error { return nil }
func (rc *replayCtx) Retract(access.ObjectID, access.Mode) error { return nil }

func (rc *replayCtx) Create([]access.Decl, rt.TaskOpts, func(rt.TC)) error {
	return fmt.Errorf("replay of task %d: a task that creates child tasks cannot be crash-replayed", rc.t.ID)
}

func (rc *replayCtx) Alloc(any, string) (access.ObjectID, error) {
	return 0, fmt.Errorf("replay of task %d: a task that allocates objects cannot be crash-replayed", rc.t.ID)
}

func (rc *replayCtx) Charge(work float64) {
	if rc.charge != nil && work > 0 {
		rc.charge(work)
	}
}

var _ rt.TC = (*replayCtx)(nil)
