// Package exectest provides executor conformance programs: randomly
// generated Jade task graphs with a pure-Go serial reference execution.
// Every executor must produce results identical to the serial reference —
// this is the paper's determinism guarantee ("all parallel executions of a
// Jade program deterministically generate the same result as a serial
// execution") made into a property test.
package exectest

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/access"
	"repro/internal/rt"
)

// ProgramSpec describes a generated program.
type ProgramSpec struct {
	// Objects is the number of shared objects (each an []int64 of length 2).
	Objects int
	// Tasks is the number of top-level tasks.
	Tasks int
	// Seed drives the deterministic pseudo-random structure.
	Seed int64
	// UseDeferred makes some reads deferred, converted mid-body and
	// retracted after use (the §4.2 with-cont machinery).
	UseDeferred bool
	// UseHierarchy makes some tasks delegate part of their work to a child
	// task (the §4.4 nesting machinery).
	UseHierarchy bool
	// UseCommute gives some tasks a commuting accumulation into an extra
	// shared counter (the §4.3 machinery). Addition commutes, so the final
	// counter value is deterministic even though the update order is not.
	UseCommute bool
}

// taskSpec is the generated shape of one task.
type taskSpec struct {
	reads    []int // object indices read
	writes   []int // object indices read+written
	deferred bool  // treat reads[0] as deferred
	child    bool  // delegate the last write to a child task
	commute  bool  // also accumulate into the shared counter
	factor   int64
}

func generate(spec ProgramSpec) []taskSpec {
	rng := rand.New(rand.NewSource(spec.Seed))
	tasks := make([]taskSpec, spec.Tasks)
	for i := range tasks {
		t := &tasks[i]
		nr := rng.Intn(3)
		nw := 1 + rng.Intn(2)
		seen := map[int]bool{}
		for len(t.writes) < nw {
			o := rng.Intn(spec.Objects)
			if !seen[o] {
				seen[o] = true
				t.writes = append(t.writes, o)
			}
		}
		for len(t.reads) < nr {
			o := rng.Intn(spec.Objects)
			if !seen[o] {
				seen[o] = true
				t.reads = append(t.reads, o)
			}
		}
		t.factor = int64(rng.Intn(7) + 1)
		t.deferred = spec.UseDeferred && len(t.reads) > 0 && rng.Intn(2) == 0
		t.child = spec.UseHierarchy && len(t.writes) > 1 && rng.Intn(2) == 0
		t.commute = spec.UseCommute && rng.Intn(2) == 0
	}
	return tasks
}

// commuteSum is the deterministic total the commuting accumulator reaches:
// each participating task adds its index+1.
func commuteSum(tasks []taskSpec) int64 {
	var sum int64
	for i, t := range tasks {
		if t.commute {
			sum += int64(i + 1)
		}
	}
	return sum
}

// apply is the task body's arithmetic, shared by the Jade version and the
// serial reference. state[o][0] is the accumulator, state[o][1] a write
// counter.
func apply(t taskSpec, read func(o int) int64, update func(o int, f func(v []int64))) {
	var sum int64
	for _, o := range t.reads {
		sum += read(o)
	}
	for _, o := range t.writes {
		o := o
		update(o, func(v []int64) {
			v[0] = v[0]*t.factor + sum + 1
			v[1]++
		})
	}
}

// RunSerial executes the generated program serially and returns the final
// object states — the semantics every executor must reproduce.
func RunSerial(spec ProgramSpec) [][]int64 {
	state := make([][]int64, spec.Objects)
	for i := range state {
		state[i] = []int64{int64(i), 0}
	}
	for _, t := range generate(spec) {
		apply(t,
			func(o int) int64 { return state[o][0] },
			func(o int, f func([]int64)) { f(state[o]) })
	}
	return state
}

// RunOn executes the generated program on an executor and returns the final
// object states plus the commuting accumulator's final value.
func RunOn(x rt.Exec, spec ProgramSpec) ([][]int64, int64, error) {
	tasks := generate(spec)
	ids := make([]access.ObjectID, spec.Objects)
	var accID access.ObjectID
	err := x.Run(func(tc rt.TC) {
		for i := range ids {
			id, err := tc.Alloc([]int64{int64(i), 0}, fmt.Sprintf("obj%d", i))
			if err != nil {
				panic(err)
			}
			ids[i] = id
		}
		var err error
		accID, err = tc.Alloc([]int64{0}, "accumulator")
		if err != nil {
			panic(err)
		}
		for ti := range tasks {
			t := tasks[ti]
			var decls []access.Decl
			for ri, o := range t.reads {
				m := access.Read
				if t.deferred && ri == 0 {
					m = access.DeferredRead
				}
				decls = append(decls, access.Decl{Object: ids[o], Mode: m})
			}
			for _, o := range t.writes {
				decls = append(decls, access.Decl{Object: ids[o], Mode: access.ReadWrite})
			}
			if t.commute {
				decls = append(decls, access.Decl{Object: accID, Mode: access.Commute})
			}
			ti := ti
			err := tc.Create(decls, rt.TaskOpts{Label: fmt.Sprintf("t%d", ti), Cost: 10}, func(body rt.TC) {
				runGenerated(body, t, ids)
				if t.commute {
					v, err := body.Access(accID, access.Commute)
					if err != nil {
						panic(err)
					}
					v.([]int64)[0] += int64(ti + 1)
					body.EndAccess(accID, access.Commute)
				}
			})
			if err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	out := make([][]int64, spec.Objects)
	for i, id := range ids {
		v, ok := x.ObjectValue(id).([]int64)
		if !ok {
			return nil, 0, fmt.Errorf("object %d has unexpected value %T", i, x.ObjectValue(id))
		}
		out[i] = v
	}
	acc := x.ObjectValue(accID).([]int64)[0]
	return out, acc, nil
}

// runGenerated is the Jade body of one generated task.
func runGenerated(tc rt.TC, t taskSpec, ids []access.ObjectID) {
	read := func(o int) int64 {
		if t.deferred && len(t.reads) > 0 && o == t.reads[0] {
			if err := tc.Convert(ids[o], access.DeferredRead); err != nil {
				panic(err)
			}
		}
		v, err := tc.Access(ids[o], access.Read)
		if err != nil {
			panic(err)
		}
		val := v.([]int64)[0]
		tc.EndAccess(ids[o], access.Read)
		if t.deferred && len(t.reads) > 0 && o == t.reads[0] {
			if err := tc.Retract(ids[o], access.AnyRead); err != nil {
				panic(err)
			}
		}
		return val
	}
	update := func(o int, f func([]int64)) {
		last := len(t.writes) > 0 && o == t.writes[len(t.writes)-1]
		if t.child && last {
			// Delegate the final write to a child task (hierarchy). The
			// parent's rd_wr covers the child's declaration.
			err := tc.Create(
				[]access.Decl{{Object: ids[o], Mode: access.ReadWrite}},
				rt.TaskOpts{Label: "child", Cost: 5},
				func(child rt.TC) {
					v, err := child.Access(ids[o], access.ReadWrite)
					if err != nil {
						panic(err)
					}
					f(v.([]int64))
					child.EndAccess(ids[o], access.ReadWrite)
				})
			if err != nil {
				panic(err)
			}
			return
		}
		v, err := tc.Access(ids[o], access.ReadWrite)
		if err != nil {
			panic(err)
		}
		f(v.([]int64))
		tc.EndAccess(ids[o], access.ReadWrite)
	}
	apply(t, read, update)
	tc.Charge(1)
}

// AwaitGoroutines waits until the process has at most want goroutines —
// the ones an executor and its workers started exit asynchronously once Run
// returns — and reports the survivors' stacks if they outlive the deadline.
func AwaitGoroutines(want int, within time.Duration) error {
	deadline := time.Now().Add(within)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines still running %v after Run returned, want at most %d:\n%s",
				runtime.NumGoroutine(), within, want, buf)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Check runs spec on the executor built by mk and compares against the
// serial reference, returning a descriptive error on any mismatch — or on
// a goroutine that mk or Run started and Run's return did not end.
func Check(mk func() rt.Exec, spec ProgramSpec) error {
	want := RunSerial(spec)
	before := runtime.NumGoroutine()
	got, acc, err := RunOn(mk(), spec)
	if err != nil {
		return fmt.Errorf("seed %d: %w", spec.Seed, err)
	}
	if err := AwaitGoroutines(before, 5*time.Second); err != nil {
		return fmt.Errorf("seed %d: %w", spec.Seed, err)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			return fmt.Errorf("seed %d: object %d = %v, want %v", spec.Seed, i, got[i], want[i])
		}
	}
	if wantAcc := commuteSum(generate(spec)); acc != wantAcc {
		return fmt.Errorf("seed %d: commuting accumulator = %d, want %d", spec.Seed, acc, wantAcc)
	}
	return nil
}
