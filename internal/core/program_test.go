package core

import (
	"math/rand"
	"testing"

	"repro/internal/access"
)

// program drives one engine through a random valid Jade program from a
// single thread: root and nested creators, commuting updates, accesses and
// with-cont conversions that may block, retractions. Hooks run on the
// driving thread, so a test may inspect the engine from them.
type program struct {
	t        *testing.T
	rng      *rand.Rand
	e        *Engine
	nObjects int
	ready    []*Task
	running  []*Task
	blocked  map[*Task]bool // waiting for an Access or Convert to be granted
	// created, if set, runs after every successful Create; afterOp after
	// every engine operation, named for failure messages.
	created func(*Task)
	afterOp func(op string)
}

func newProgram(t *testing.T, seed int64, hooks Hooks) *program {
	p := &program{t: t, rng: rand.New(rand.NewSource(seed)), blocked: map[*Task]bool{}}
	p.nObjects = 3 + p.rng.Intn(4)
	hooks.Ready = func(tk *Task) { p.ready = append(p.ready, tk) }
	p.e = New(hooks)
	return p
}

func (p *program) did(op string) {
	if p.afterOp != nil {
		p.afterOp(op)
	}
}

// pick returns a random running task that is not blocked (nil if none).
func (p *program) pick() *Task {
	var free []*Task
	for _, tk := range p.running {
		if !p.blocked[tk] {
			free = append(free, tk)
		}
	}
	if len(free) == 0 {
		return nil
	}
	return free[p.rng.Intn(len(free))]
}

func (p *program) create(parent *Task, decls []access.Decl) {
	if len(decls) == 0 {
		return
	}
	tk, err := p.e.Create(parent, decls, nil)
	if err != nil {
		p.t.Fatalf("create %v under task %d: %v", decls, parent.ID, err)
	}
	if p.created != nil {
		p.created(tk)
	}
	p.did("create")
}

// wait returns the wake callback for a blocking call of tk.
func (p *program) wait(tk *Task) func() {
	p.blocked[tk] = true
	return func() { delete(p.blocked, tk) }
}

// covered lists the modes a child may declare under a parent holding pm.
func covered(pm access.Mode) []access.Mode {
	var out []access.Mode
	if pm.HasAny(access.AnyRead) {
		out = append(out, access.Read, access.DeferredRead)
	}
	if pm.HasAny(access.AnyWrite) {
		out = append(out, access.Write, access.DeferredWrite, access.Commute)
	}
	if pm.HasAny(access.AnyRead) && pm.HasAny(access.AnyWrite) {
		out = append(out, access.ReadWrite, access.Read|access.DeferredWrite)
	}
	if pm.Has(access.Commute) {
		out = append(out, access.Commute)
	}
	return out
}

func (p *program) step() {
	rng := p.rng
	switch rng.Intn(9) {
	case 0, 1: // the main program creates a task
		var decls []access.Decl
		for k := 1 + rng.Intn(3); k > 0; k-- {
			decls = append(decls, access.Decl{
				Object: access.ObjectID(rng.Intn(p.nObjects) + 1),
				Mode:   covered(access.ReadWrite)[rng.Intn(7)],
			})
		}
		p.create(p.e.Root(), decls)
	case 2: // a running task creates a child its current rights cover
		tk := p.pick()
		if tk == nil {
			return
		}
		var decls []access.Decl
		for _, d := range tk.Decls {
			if ms := covered(tk.Mode(d.Object)); len(ms) > 0 && tk.Mode(d.Object) != 0 && rng.Intn(2) == 0 {
				p.e.ClearAccess(tk, d.Object) // no live view may conflict with the child
				decls = append(decls, access.Decl{Object: d.Object, Mode: ms[rng.Intn(len(ms))]})
			}
		}
		p.create(tk, decls)
	case 3:
		if len(p.ready) > 0 {
			i := rng.Intn(len(p.ready))
			tk := p.ready[i]
			p.ready = append(p.ready[:i], p.ready[i+1:]...)
			if err := p.e.Start(tk); err != nil {
				p.t.Fatal(err)
			}
			p.running = append(p.running, tk)
		}
	case 4: // a task finishes; its children may still be live
		if tk := p.pick(); tk != nil {
			p.complete(tk)
		}
	case 5: // no_rd / no_wr
		if tk := p.pick(); tk != nil && len(tk.Decls) > 0 {
			which := []access.Mode{access.AnyRead, access.AnyWrite}[rng.Intn(2)]
			if err := p.e.Retract(tk, tk.Decls[rng.Intn(len(tk.Decls))].Object, which); err != nil {
				p.t.Fatal(err)
			}
			p.did("retract")
		}
	case 6: // with-cont rd / wr
		if tk := p.pick(); tk != nil && len(tk.Decls) > 0 {
			obj := tk.Decls[rng.Intn(len(tk.Decls))].Object
			if which := tk.Mode(obj).Deferred(); which != 0 {
				wake := p.wait(tk)
				ok, err := p.e.Convert(tk, obj, which, wake)
				if err != nil {
					p.t.Fatal(err)
				}
				if ok {
					wake()
				}
				p.did("convert")
			}
		}
	case 7, 8: // a data access, released at once half the time
		if tk := p.pick(); tk != nil && len(tk.Decls) > 0 {
			obj := tk.Decls[rng.Intn(len(tk.Decls))].Object
			m := tk.Mode(obj).Immediate()
			if m.Has(access.Commute) && (m == access.Commute || rng.Intn(2) == 0) {
				m = access.Commute
			} else {
				m &^= access.Commute
			}
			if m == 0 {
				return
			}
			wake := p.wait(tk)
			ok, err := p.e.Access(tk, obj, m, wake)
			if err != nil {
				p.t.Fatal(err)
			}
			if ok {
				wake()
				if rng.Intn(2) == 0 {
					p.e.EndAccess(tk, obj, m)
				}
			}
			p.did("access")
		}
	}
}

func (p *program) complete(tk *Task) {
	for i, x := range p.running {
		if x == tk {
			p.running = append(p.running[:i], p.running[i+1:]...)
		}
	}
	if err := p.e.Complete(tk); err != nil {
		p.t.Fatal(err)
	}
	p.did("complete")
}

// run takes steps random steps, then lets every task finish.
func (p *program) run(steps int) {
	for i := 0; i < steps; i++ {
		p.step()
	}
	for len(p.ready) > 0 || len(p.running) > 0 {
		progress := len(p.ready) > 0
		for _, tk := range p.ready {
			if err := p.e.Start(tk); err != nil {
				p.t.Fatal(err)
			}
			p.running = append(p.running, tk)
		}
		p.ready = nil
		for tk := p.pick(); tk != nil; tk = p.pick() {
			p.complete(tk)
			progress = true
		}
		if !progress {
			p.t.Fatalf("program stuck: %d tasks running, all blocked", len(p.running))
		}
	}
	if err := p.e.Complete(p.e.Root()); err != nil {
		p.t.Fatal(err)
	}
	p.did("complete root")
	if p.e.Live() != 0 {
		p.t.Fatalf("%d tasks leaked", p.e.Live())
	}
}

// TestDependCoveringSetClosure is the property that lets Create report the
// covering set instead of every conflicting earlier task: on random
// programs the reported graph and the full one — an edge from every queued
// entry whose rights conflict with the new task's, which is what the engine
// reported before — have the same transitive closure.
func TestDependCoveringSetClosure(t *testing.T) {
	type edge struct{ from, to TaskID }
	fullTotal, coverTotal := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		cover, full := map[edge]bool{}, map[edge]bool{}
		p := newProgram(t, seed, Hooks{Depend: func(later *Task, deps []Dep) {
			for _, d := range deps {
				if cover[edge{d.Earlier.ID, later.ID}] = true; d.Earlier.ID >= later.ID {
					t.Fatalf("seed %d: edge from task %d to the earlier %d", seed, d.Earlier.ID, later.ID)
				}
			}
		}})
		// The hooks of a Create change no queue, so after it returns the
		// queues are as its Depend scan saw them.
		p.created = func(tk *Task) {
			for _, en := range tk.entries {
				q := p.e.queue(en.obj)
				for _, prior := range q.entries {
					if prior == en {
						break
					}
					if prior.mode.ConflictsWith(en.mode.Promote()) {
						full[edge{prior.task.ID, tk.ID}] = true
					}
				}
			}
		}
		p.run(150)

		// Edges point from lower to higher IDs, so one ascending pass
		// closes the graph.
		n := TaskID(p.e.Stats().TasksCreated + 2)
		closure := func(g map[edge]bool) []map[TaskID]bool {
			reach := make([]map[TaskID]bool, n) // reach[t]: the tasks t depends on
			for to := TaskID(0); to < n; to++ {
				reach[to] = map[TaskID]bool{}
				for from := TaskID(0); from < to; from++ {
					if g[edge{from, to}] {
						reach[to][from] = true
						for r := range reach[from] {
							reach[to][r] = true
						}
					}
				}
			}
			return reach
		}
		rc, rf := closure(cover), closure(full)
		for id := range rf {
			if len(rc[id]) != len(rf[id]) {
				t.Fatalf("seed %d: task %d depends on %d tasks through the covering edges, %d through all of them",
					seed, id, len(rc[id]), len(rf[id]))
			}
		}
		for ed := range cover {
			if !full[ed] {
				t.Fatalf("seed %d: covering edge %v is not a conflict", seed, ed)
			}
		}
		fullTotal += len(full)
		coverTotal += len(cover)
	}
	t.Logf("edges reported: %d covering of %d conflicting", coverTotal, fullTotal)
	if coverTotal >= fullTotal {
		t.Fatalf("the covering set dropped no edge (%d of %d): the property went untested", coverTotal, fullTotal)
	}
}

// TestEntryTableConsistency: a large entry table answers findEntry for
// exactly what it holds after entries are retracted away, and is gone at
// Complete — a stale one would keep answering for a finished parent in its
// children's enable checks (the summary's ancestor rule).
func TestEntryTableConsistency(t *testing.T) {
	e, _ := newEngine()
	root := e.Root()
	const n = 24
	var decls []access.Decl
	for obj := access.ObjectID(1); obj <= n; obj++ {
		decls = append(decls, access.Decl{Object: obj, Mode: access.ReadWrite})
	}
	// Ahead of the parent on object 1: a writer and a backlog of readers.
	w := mustCreate(t, e, root, access.Decl{Object: 1, Mode: access.Write})
	for i := 0; i < 9; i++ {
		mustCreate(t, e, root, access.Decl{Object: 1, Mode: access.Read})
	}
	parent := mustCreate(t, e, root, append(decls[1:], access.Decl{Object: 1, Mode: access.DeferredReadWrite})...)
	if err := e.Start(parent); err != nil {
		t.Fatal(err)
	}
	consistent := func(when string) {
		t.Helper()
		for obj := access.ObjectID(1); obj <= n; obj++ {
			var want *entry
			for _, en := range parent.entries {
				if en.obj == obj {
					want = en
				}
			}
			if got := parent.findEntry(obj); got != want {
				t.Fatalf("%s: findEntry(#%d) = %p, the table holds %p", when, obj, got, want)
			}
		}
		if err := checkInvariants(e); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	consistent("created")
	child := mustCreate(t, e, parent, access.Decl{Object: 1, Mode: access.DeferredRead})
	if err := e.Start(child); err != nil {
		t.Fatal(err)
	}
	for obj := access.ObjectID(2); obj <= 6; obj++ {
		if err := e.Retract(parent, obj, access.AnyRead|access.AnyWrite); err != nil {
			t.Fatal(err)
		}
		consistent("after a retract to zero")
	}
	if err := e.Complete(parent); err != nil {
		t.Fatal(err)
	}
	if parent.entries != nil || parent.findEntry(1) != nil {
		t.Fatal("a finished task keeps an entry table")
	}
	if err := checkInvariants(e); err != nil {
		t.Fatalf("after the parent finished: %v", err)
	}
	// The child still queues behind the writer. Its parent's entry is gone
	// from the queue, so it must be gone from the summary's ancestor rule too.
	woken := false
	if ok, err := e.Convert(child, 1, access.DeferredRead, func() { woken = true }); err != nil || ok {
		t.Fatalf("child's with-cont rd behind a queued writer: ok=%v err=%v", ok, err)
	}
	if err := e.Start(w); err != nil {
		t.Fatal(err)
	}
	if err := e.Complete(w); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Fatal("child not woken when the writer finished")
	}
	// The root finishing while the child runs: same rule, same check.
	if err := e.Complete(root); err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(e); err != nil {
		t.Fatalf("after the root finished: %v", err)
	}
}
