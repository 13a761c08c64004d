package dist

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/rt"
)

// committedTask returns a declaration-free task of eng that has completed.
func committedTask(t *testing.T, eng *core.Engine) *core.Task {
	t.Helper()
	task, err := eng.Create(eng.Root(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(task); err != nil {
		t.Fatal(err)
	}
	if err := eng.Complete(task); err != nil {
		t.Fatal(err)
	}
	return task
}

// TestInputLogSharesOneClonePerGeneration: first encounter wins, tasks at
// the same generation share one immutable clone, a new generation (or a
// forget after rollback) takes a new one, and fresh values are kept as is.
func TestInputLogSharesOneClonePerGeneration(t *testing.T) {
	l := newInputLog()
	live := []int64{1, 2, 3}
	l.log(10, 1, 0, live)
	l.log(11, 1, 0, live)
	live[0] = 99 // the writer mutates its copy in place afterwards
	a, b := l.inputs(10)[1].([]int64), l.inputs(11)[1].([]int64)
	if &a[0] != &b[0] {
		t.Fatal("two tasks at one generation got separate clones")
	}
	if a[0] != 1 {
		t.Fatalf("logged value follows the live copy: %v", a)
	}
	l.log(10, 1, 1, live) // not the first encounter: ignored
	if got := l.inputs(10)[1].([]int64); got[0] != 1 {
		t.Fatalf("second encounter overwrote the log: %v", got)
	}
	l.log(12, 1, 1, live)
	if c := l.inputs(12)[1].([]int64); &c[0] == &a[0] || c[0] != 99 {
		t.Fatalf("generation 1 logged as %v sharing=%v, want a fresh clone of the new contents", c, &c[0] == &a[0])
	}
	l.forget(1)
	live[0] = 7
	l.log(13, 1, 1, live)
	if c := l.inputs(13)[1].([]int64); c[0] != 7 {
		t.Fatalf("after forget, generation 1 logged as %v, want the re-derived contents", c)
	}
	zero := make([]int64, 3)
	l.logFresh(14, 1, zero)
	if z := l.inputs(14)[1].([]int64); &z[0] != &zero[0] {
		t.Fatal("LogFresh cloned a value it was handed")
	}
	if !l.logged(14, 1) || l.logged(14, 2) || l.inputs(99) != nil {
		t.Fatal("logged/inputs disagree with what was logged")
	}
}

// TestReplay: the body runs against clones of the log, the structural
// operations are refused with errors that say why, dynamic work reaches
// the host's charge func, and a panic is an error.
func TestReplay(t *testing.T) {
	eng := core.New(core.Hooks{})
	task := committedTask(t, eng)
	inputs := map[access.ObjectID]any{1: []int64{5}, 2: []int64{0}}

	var charged float64
	out, err := replay(task, 3, inputs, func(tc rt.TC) {
		if tc.CoreTask() != task || tc.Machine() != 3 {
			t.Errorf("replay context reports task %v on machine %d", tc.CoreTask(), tc.Machine())
		}
		in, _ := tc.Access(1, access.Read)
		dst, _ := tc.Access(2, access.ReadWrite)
		dst.([]int64)[0] = in.([]int64)[0] * 2
		tc.EndAccess(2, access.ReadWrite)
		tc.Charge(1.5)
		tc.Charge(0)
	}, func(w float64) { charged += w }, 2)
	if err != nil || out.([]int64)[0] != 10 {
		t.Fatalf("replay = (%v, %v), want ([10], nil)", out, err)
	}
	if inputs[2].([]int64)[0] != 0 {
		t.Fatal("replay mutated the log")
	}
	if charged != 1.5 {
		t.Fatalf("charged %v work units, want 1.5", charged)
	}

	refused := func(name, want string, body func(rt.TC) error) {
		t.Helper()
		var got error
		if _, err := replay(task, 0, inputs, func(tc rt.TC) { got = body(tc) }, nil, 1); err != nil {
			t.Fatalf("%s: replay itself failed: %v", name, err)
		}
		if got == nil || !strings.Contains(got.Error(), want) || !strings.Contains(got.Error(), fmt.Sprint(task.ID)) {
			t.Fatalf("%s refused with %v, want an error naming task %d and %q", name, got, task.ID, want)
		}
	}
	refused("Create", "creates child tasks", func(tc rt.TC) error { return tc.Create(nil, rt.TaskOpts{}, func(rt.TC) {}) })
	refused("Alloc", "allocates objects", func(tc rt.TC) error { _, err := tc.Alloc([]int64{1}, "x"); return err })
	refused("Access outside the log", "outside the logged input set", func(tc rt.TC) error { _, err := tc.Access(9, access.Read); return err })

	if _, err := replay(task, 0, inputs, func(rt.TC) { panic("boom") }, nil, 1); err == nil || !strings.Contains(err.Error(), "panicked: boom") {
		t.Fatalf("panicking body: err = %v, want a panic turned into an error", err)
	}
	if _, err := replay(task, 0, inputs, func(rt.TC) {}, nil, 9); err == nil || !strings.Contains(err.Error(), "no value for object #9") {
		t.Fatalf("unlogged output: err = %v", err)
	}
	if _, err := replay(task, 0, nil, func(rt.TC) {}, nil, 1); err == nil || !strings.Contains(err.Error(), "no input log") {
		t.Fatalf("missing log: err = %v", err)
	}
}
