package core_test

// Property-based concurrency stress test for the sharded dependency engine:
// random task trees with random rd/wr/rd_wr/cm/deferred access patterns run
// on the real shared-memory executor must produce results bit-identical to
// executing the same program serially (every task body run at its creation
// point) — the paper's deterministic serial semantics. Run under -race to
// also prove the engine itself is data-race free.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/exec/smp"
	"repro/internal/rt"
)

const (
	opRead  = iota // read all elements into the task accumulator
	opWrite        // overwrite all elements (pure write, no read)
	opRdWr         // read-modify-write all elements
	opCm           // commuting update: add a constant
	opDf           // deferred rd_wr: convert mid-body, then read-modify-write
	numOpKinds
)

// sop is one shared-object operation of a task body.
type sop struct {
	kind int
	obj  int // data object index
}

// saction is one step of a task body: either an operation or a child task
// created at this point (which, serially, runs here).
type saction struct {
	op    *sop
	child *stask
}

// stask is one node of a random task tree.
type stask struct {
	index   int
	actions []saction
}

// genTree builds a random task tree. next numbers tasks in creation order.
func genTree(rng *rand.Rand, depth int, nObjects int, next *int) *stask {
	t := &stask{index: *next}
	*next++
	steps := 1 + rng.Intn(4)
	for i := 0; i < steps; i++ {
		if depth < 3 && *next < 40 && rng.Intn(4) == 0 {
			t.actions = append(t.actions, saction{child: genTree(rng, depth+1, nObjects, next)})
		} else {
			t.actions = append(t.actions, saction{op: &sop{
				kind: rng.Intn(numOpKinds),
				obj:  rng.Intn(nObjects),
			}})
		}
	}
	return t
}

// opMode is the access declaration one operation requires.
func opMode(kind int) access.Mode {
	switch kind {
	case opRead:
		return access.Read
	case opWrite:
		return access.Write
	case opRdWr:
		return access.ReadWrite
	case opCm:
		return access.Commute
	case opDf:
		return access.DeferredReadWrite
	}
	panic("bad op kind")
}

// needs returns the modes task t must declare per data object: its own
// operations plus (hierarchy covering rule) everything its descendants
// declare. It also reports which task-result slots the subtree writes.
func needs(t *stask, nObjects int, modes []access.Mode, results []bool) {
	results[t.index] = true
	for _, a := range t.actions {
		if a.child != nil {
			needs(a.child, nObjects, modes, results)
			continue
		}
		modes[a.op.obj] |= opMode(a.op.kind)
	}
}

func declsFor(t *stask, nObjects, nTasks int, dataIDs, resIDs []access.ObjectID) []access.Decl {
	modes := make([]access.Mode, nObjects)
	results := make([]bool, nTasks)
	needs(t, nObjects, modes, results)
	var decls []access.Decl
	for o, m := range modes {
		if m != 0 {
			decls = append(decls, access.Decl{Object: dataIDs[o], Mode: m})
		}
	}
	for i, w := range results {
		if w {
			decls = append(decls, access.Decl{Object: resIDs[i], Mode: access.Write})
		}
	}
	return decls
}

func taskSeed(index int) int64 { return int64(index)*2654435761 + 12345 }

// serialRun executes the tree with the serial semantics: each child body
// runs exactly at its creation point.
func serialRun(t *stask, data [][]int64, results []int64) {
	acc := taskSeed(t.index)
	for _, a := range t.actions {
		if a.child != nil {
			serialRun(a.child, data, results)
			continue
		}
		o := data[a.op.obj]
		switch a.op.kind {
		case opRead:
			for _, v := range o {
				acc = acc*31 + v
			}
		case opWrite:
			for k := range o {
				o[k] = acc + int64(k)
			}
		case opRdWr, opDf:
			for k := range o {
				o[k] += acc
				acc = acc*31 + o[k]
			}
		case opCm:
			// Must commute with other opCm updates: add a constant.
			for k := range o {
				o[k] += int64(a.op.obj+1) * 7
			}
		}
	}
	results[t.index] = acc
}

// parallelBody executes one task's body through the rt.TC interface,
// calling check after every operation.
func parallelBody(tc rt.TC, t *stask, nObjects, nTasks int, dataIDs, resIDs []access.ObjectID, check func()) {
	acc := taskSeed(t.index)
	touched := map[int]bool{}
	for _, a := range t.actions {
		check()
		if a.child != nil {
			// Release held views first: creating a child that conflicts
			// with a live view is a violation.
			for o := range touched {
				tc.ClearAccess(dataIDs[o])
			}
			touched = map[int]bool{}
			child := a.child
			err := tc.Create(declsFor(child, nObjects, nTasks, dataIDs, resIDs),
				rt.TaskOpts{Label: fmt.Sprintf("t%d", child.index)},
				func(ctc rt.TC) {
					parallelBody(ctc, child, nObjects, nTasks, dataIDs, resIDs, check)
				})
			if err != nil {
				panic(err)
			}
			continue
		}
		obj := dataIDs[a.op.obj]
		get := func(m access.Mode) []int64 {
			v, err := tc.Access(obj, m)
			if err != nil {
				panic(err)
			}
			return v.([]int64)
		}
		switch a.op.kind {
		case opRead:
			for _, v := range get(access.Read) {
				acc = acc*31 + v
			}
			touched[a.op.obj] = true
		case opWrite:
			o := get(access.Write)
			for k := range o {
				o[k] = acc + int64(k)
			}
			touched[a.op.obj] = true
		case opRdWr:
			o := get(access.ReadWrite)
			for k := range o {
				o[k] += acc
				acc = acc*31 + o[k]
			}
			touched[a.op.obj] = true
		case opDf:
			if err := tc.Convert(obj, access.DeferredReadWrite); err != nil {
				panic(err)
			}
			o := get(access.ReadWrite)
			for k := range o {
				o[k] += acc
				acc = acc*31 + o[k]
			}
			touched[a.op.obj] = true
		case opCm:
			o := get(access.Commute)
			for k := range o {
				o[k] += int64(a.op.obj+1) * 7
			}
			tc.EndAccess(obj, access.Commute)
		}
	}
	check()
	v, err := tc.Access(resIDs[t.index], access.Write)
	if err != nil {
		panic(err)
	}
	v.([]int64)[0] = acc
}

// TestStressSerialEquivalence is the determinism property test: for random
// programs, every parallel configuration must reproduce the serial result
// bit for bit.
func TestStressSerialEquivalence(t *testing.T) {
	const nObjects = 5
	const objLen = 4
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		// One virtual top-level list of task trees created by the root.
		nTasks := 0
		var tops []*stask
		for len(tops) == 0 || (rng.Intn(3) != 0 && nTasks < 30) {
			tops = append(tops, genTree(rng, 0, nObjects, &nTasks))
		}

		// Serial reference.
		wantData := make([][]int64, nObjects)
		for i := range wantData {
			wantData[i] = make([]int64, objLen)
			for k := range wantData[i] {
				wantData[i][k] = int64(i*10 + k)
			}
		}
		wantRes := make([]int64, nTasks)
		for _, tp := range tops {
			serialRun(tp, wantData, wantRes)
		}

		for _, procs := range []int{1, 2, 4, 8} {
			for _, throttle := range []int{0, 2} {
				name := fmt.Sprintf("seed=%d/procs=%d/throttle=%d", seed, procs, throttle)
				x := smp.New(smp.Options{Procs: procs, MaxLiveTasks: throttle})
				dataIDs := make([]access.ObjectID, nObjects)
				resIDs := make([]access.ObjectID, nTasks)
				// The engine's invariants, the queue summary among them,
				// checked from every task after each of its operations
				// while the others run.
				check := func() {
					if err := core.CheckInvariants(x.Engine()); err != nil {
						panic(fmt.Sprintf("%s: %v", name, err))
					}
				}
				err := x.Run(func(tc rt.TC) {
					for i := range dataIDs {
						init := make([]int64, objLen)
						for k := range init {
							init[k] = int64(i*10 + k)
						}
						id, err := tc.Alloc(init, fmt.Sprintf("data%d", i))
						if err != nil {
							panic(err)
						}
						dataIDs[i] = id
					}
					for i := range resIDs {
						id, err := tc.Alloc(make([]int64, 1), fmt.Sprintf("res%d", i))
						if err != nil {
							panic(err)
						}
						resIDs[i] = id
					}
					for _, tp := range tops {
						top := tp
						err := tc.Create(declsFor(top, nObjects, nTasks, dataIDs, resIDs),
							rt.TaskOpts{Label: fmt.Sprintf("t%d", top.index)},
							func(ctc rt.TC) {
								parallelBody(ctc, top, nObjects, nTasks, dataIDs, resIDs, check)
							})
						if err != nil {
							panic(err)
						}
					}
				})
				if err != nil {
					t.Fatalf("%s: run: %v", name, err)
				}
				for i := range dataIDs {
					got := x.ObjectValue(dataIDs[i]).([]int64)
					for k := range got {
						if got[k] != wantData[i][k] {
							t.Fatalf("%s: data object %d[%d] = %d, want %d (serial)",
								name, i, k, got[k], wantData[i][k])
						}
					}
				}
				for i := range resIDs {
					got := x.ObjectValue(resIDs[i]).([]int64)[0]
					if got != wantRes[i] {
						t.Fatalf("%s: task %d result = %d, want %d (serial)", name, i, got, wantRes[i])
					}
				}
				if st := x.Engine().Stats(); st.TasksCreated != uint64(nTasks) {
					t.Fatalf("%s: engine created %d tasks, tree has %d", name, st.TasksCreated, nTasks)
				}
			}
		}
	}
}
