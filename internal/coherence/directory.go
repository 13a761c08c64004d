// Package coherence is the bookkeeping of the paper's §5 object management
// and of its recovery extension, written once for both message-passing
// executors: which machine owns the latest generation of each object and
// which hold read copies of it, at which generation each machine's retained
// stale copy froze, which task's write produced each generation, and how a
// transfer is encoded — as a patch against the receiver's stale copy when
// that is smaller, as a full image otherwise, in the receiver's byte order
// either way. What only one host needs lives in that host: the simulated
// executor's input log and task replay are in exec/dist.
//
// It is a pure data structure in the style of internal/core: no blocking,
// no time, no locks. The host serialises calls (the simulated executor
// through the discrete-event engine, the live one under its coherence lock)
// and supplies everything that is genuinely its own — where object bytes
// live and how they move.
//
// The directory's transition table, one line per method:
//
//	Alloc        the object is born on m: m owns and holds generation 0
//	GrantRead    m replicates the current generation: m joins the holders
//	             (and, now current, has no shadow any more)
//	GrantWrite   m migrates the object and starts the next generation: every
//	             other holder is invalidated and its shadow frozen at the
//	             outgoing generation, m is sole holder and owner, the
//	             generation's writer is appended to the history
//	DropShadow   the host did not keep an invalidated holder's stale bytes:
//	             that machine has no shadow of the object
//	LoseMachine  m left the computation: its copies and shadows are gone;
//	             the objects it owned are listed for the host to rebuild
//	Promote      m holds the committed contents (a surviving copy, a
//	             restored shadow, a replayed writer's output, a drained
//	             cache): m owns and holds the current generation
//	Rollback     generations above ver died with their only holder before
//	             their writers committed: the object is at ver again
//	TrimHistory  the host holds generation floor's committed contents: the
//	             write grants at or below it are forgotten
package coherence

import (
	"sort"

	"repro/internal/access"
	"repro/internal/core"
)

// Entry is the directory's record of one object. Owner is always among the
// holders, except between LoseMachine listing the object and the host's
// Promote. Version counts content generations: it increments every time a
// writer takes the object, so an invalidated copy knows exactly which
// generation it froze at and a re-fetch can be satisfied with a patch
// against that generation. Hosts read the fields; only Directory methods
// change them.
type Entry struct {
	Object  access.ObjectID
	Owner   int
	Version uint64
	Label   string
	// copies are the machines holding the current generation, ascending.
	copies []int
	// shadows are the machines retaining a stale copy, each with the
	// generation it froze at. A holder has no shadow.
	shadows []shadow
	// hist records the generations above the host's trim floor and the
	// task whose write grant produced each, strictly increasing.
	hist []Write
}

type shadow struct {
	machine int
	gen     uint64
}

// Write is one content generation of an object: the version a write grant
// produced and the task it was granted to.
type Write struct {
	Version uint64
	Task    *core.Task
}

// Holds reports whether machine m holds the current generation.
func (e *Entry) Holds(m int) bool {
	for _, c := range e.copies {
		if c == m {
			return true
		}
	}
	return false
}

// Holders returns the machines holding the current generation in ascending
// order. The slice is the entry's own: read it before the next transition.
func (e *Entry) Holders() []int { return e.copies }

// ShadowGen returns the generation machine m's stale copy froze at.
func (e *Entry) ShadowGen(m int) (gen uint64, ok bool) {
	for _, s := range e.shadows {
		if s.machine == m {
			return s.gen, true
		}
	}
	return 0, false
}

// Directory is the set of entries. All transitions are its methods.
type Directory struct {
	entries map[access.ObjectID]*Entry
	// invalid is GrantWrite's result, reused across calls.
	invalid []int
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{entries: map[access.ObjectID]*Entry{}}
}

// Entry returns obj's record, or nil for an object never allocated.
func (d *Directory) Entry(obj access.ObjectID) *Entry { return d.entries[obj] }

// Entries returns every record in ascending object order.
func (d *Directory) Entries() []*Entry {
	out := make([]*Entry, 0, len(d.entries))
	for _, e := range d.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object < out[j].Object })
	return out
}

// Alloc records an object born on machine m.
func (d *Directory) Alloc(obj access.ObjectID, m int, label string) *Entry {
	e := &Entry{Object: obj, Owner: m, Label: label, copies: []int{m}}
	d.entries[obj] = e
	return e
}

// GrantRead adds m to the holders of the current generation.
func (d *Directory) GrantRead(e *Entry, m int) {
	d.DropShadow(e, m)
	i := sort.SearchInts(e.copies, m)
	if i < len(e.copies) && e.copies[i] == m {
		return
	}
	e.copies = append(e.copies, 0)
	copy(e.copies[i+1:], e.copies[i:])
	e.copies[i] = m
}

// GrantWrite makes m the owner and sole holder of a new generation written
// by w. It returns the other holders of the outgoing generation, ascending,
// each with its shadow frozen at that generation: the host invalidates
// their copies, and calls DropShadow for any whose stale bytes it does not
// retain. The result is valid until the next GrantWrite. Steady state
// allocates nothing: this runs once per write grant.
func (d *Directory) GrantWrite(e *Entry, m int, w *core.Task) []int {
	d.DropShadow(e, m)
	d.invalid = d.invalid[:0]
	for _, c := range e.copies {
		if c != m {
			d.invalid = append(d.invalid, c)
			e.shadows = append(e.shadows, shadow{machine: c, gen: e.Version})
		}
	}
	e.copies = append(e.copies[:0], m)
	e.Owner = m
	e.Version++
	e.hist = append(e.hist, Write{Version: e.Version, Task: w})
	return d.invalid
}

// DropShadow forgets machine m's stale copy of e.
func (d *Directory) DropShadow(e *Entry, m int) {
	for i, s := range e.shadows {
		if s.machine == m {
			e.shadows = append(e.shadows[:i], e.shadows[i+1:]...)
			return
		}
	}
}

// LoseMachine removes every trace of a departed machine: its read copies
// leave the holder sets and its shadows are forgotten. The objects it owned
// are returned in ascending order with Owner unchanged; the host re-derives
// their committed contents and Promotes a live machine. Calling it again
// for the same machine lists whatever has not been promoted yet.
func (d *Directory) LoseMachine(m int) (owned []access.ObjectID) {
	for obj, e := range d.entries {
		for i, c := range e.copies {
			if c == m {
				e.copies = append(e.copies[:i], e.copies[i+1:]...)
				break
			}
		}
		d.DropShadow(e, m)
		if e.Owner == m {
			owned = append(owned, obj)
		}
	}
	sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
	return owned
}

// Promote makes m the owner and a holder of the current generation without
// starting a new one.
func (d *Directory) Promote(e *Entry, m int) {
	e.Owner = m
	d.GrantRead(e, m)
}

// LastCommittedWriter returns the newest write grant above floor whose task
// has completed, or (nil, floor) when every generation above floor is
// uncommitted: the contents at floor are then the committed ones.
func (d *Directory) LastCommittedWriter(e *Entry, floor uint64) (*core.Task, uint64) {
	for i := len(e.hist) - 1; i >= 0 && e.hist[i].Version > floor; i-- {
		if e.hist[i].Task.State() == core.Done {
			return e.hist[i].Task, e.hist[i].Version
		}
	}
	return nil, floor
}

// Writer returns the task whose write grant started generation ver, or nil
// when the history holds no such grant: it was never made, was rolled back,
// or was trimmed once the host held that generation's contents.
func (d *Directory) Writer(e *Entry, ver uint64) *core.Task {
	for i := len(e.hist) - 1; i >= 0 && e.hist[i].Version >= ver; i-- {
		if e.hist[i].Version == ver {
			return e.hist[i].Task
		}
	}
	return nil
}

// Rollback returns the object to generation ver, forgetting the write
// grants above it: their writers re-execute and produce them again.
func (d *Directory) Rollback(e *Entry, ver uint64) {
	n := len(e.hist)
	for n > 0 && e.hist[n-1].Version > ver {
		n--
	}
	clear(e.hist[n:])
	e.hist = e.hist[:n]
	e.Version = ver
}

// TrimHistory forgets the write grants at or below floor — the host holds
// those generations' committed contents and will never replay them. The
// history's storage is kept for the next grant.
func (d *Directory) TrimHistory(e *Entry, floor uint64) {
	i := 0
	for i < len(e.hist) && e.hist[i].Version <= floor {
		i++
	}
	n := copy(e.hist, e.hist[i:])
	clear(e.hist[n:])
	e.hist = e.hist[:n]
}
