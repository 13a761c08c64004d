package coherence

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/rt"
)

// Replay re-derives the contents of obj by re-running the body of its
// committed writer t against clones of t's logged inputs, as if on the
// given machine. The body mutates the clones in place, so the log stays
// pristine for further replays. charge, if non-nil, receives the body's
// dynamic work (rt.TC.Charge) so a host running in virtual time can bill
// it. A panicking body is an error, not a crash of the recovery pass.
func Replay(t *core.Task, machine int, inputs map[access.ObjectID]any, body func(rt.TC), charge func(work float64), obj access.ObjectID) (out any, err error) {
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
