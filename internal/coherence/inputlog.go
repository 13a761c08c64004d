package coherence

import (
	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/format"
)

// InputLog records, per task, the value of each object as the task first
// observed it (sender-based logging). A task is a pure function of its
// declared read set, so replaying a committed task's body against its log
// re-derives, bit for bit, any generation it wrote — even after every copy
// of its output died with a machine. Only the first encounter per (task,
// object) is kept: a re-executed attempt re-fetches the same committed
// generations, so the first snapshot stays valid.
//
// Logged values are immutable (Replay clones before running the body), so
// every task that observes an object at the same generation shares one
// clone of it.
type InputLog struct {
	byTask map[core.TaskID]map[access.ObjectID]any
	// latest is the shared clone of each object's most recently logged
	// generation. A generation's contents are unique — the directory bumps
	// the version on every write grant — except across a Rollback, after
	// which the host must Forget the object.
	latest map[access.ObjectID]versioned
}

type versioned struct {
	ver uint64
	val any
}

// NewInputLog returns an empty log.
func NewInputLog() *InputLog {
	return &InputLog{
		byTask: map[core.TaskID]map[access.ObjectID]any{},
		latest: map[access.ObjectID]versioned{},
	}
}

// Logged reports whether task t already has a snapshot of obj. Hosts that
// must do work to produce the value (the live coordinator syncs its cache)
// ask first.
func (l *InputLog) Logged(t core.TaskID, obj access.ObjectID) bool {
	_, ok := l.byTask[t][obj]
	return ok
}

// Log records that task t observed obj at generation ver holding val,
// unless t already logged obj. val is cloned at most once per generation.
func (l *InputLog) Log(t core.TaskID, obj access.ObjectID, ver uint64, val any) {
	if l.Logged(t, obj) {
		return
	}
	s, ok := l.latest[obj]
	if !ok || s.ver != ver {
		s = versioned{ver: ver, val: format.Clone(val)}
		l.latest[obj] = s
	}
	l.put(t, obj, s.val)
}

// LogFresh records a value that is no generation of obj — the zeroed
// buffer of a write-only grant — unless t already logged obj. The log
// keeps val itself: the caller hands over a value nothing else references.
func (l *InputLog) LogFresh(t core.TaskID, obj access.ObjectID, val any) {
	if !l.Logged(t, obj) {
		l.put(t, obj, val)
	}
}

func (l *InputLog) put(t core.TaskID, obj access.ObjectID, val any) {
	ins := l.byTask[t]
	if ins == nil {
		ins = map[access.ObjectID]any{}
		l.byTask[t] = ins
	}
	ins[obj] = val
}

// Inputs returns task t's snapshots (nil if it logged nothing). Read-only.
func (l *InputLog) Inputs(t core.TaskID) map[access.ObjectID]any { return l.byTask[t] }

// Forget drops the shared clone of obj: after a directory Rollback its
// generation numbers will be reused for re-derived contents.
func (l *InputLog) Forget(obj access.ObjectID) { delete(l.latest, obj) }
