package live_test

// Property-based membership chaos tests for the live executor: random
// flat programs run under randomized seeded kill/join/drain schedules
// (fired at deterministic retirement counts by the livetest harness)
// must neither deadlock nor lose tasks, and must produce results
// bit-identical to executing the same program serially — the paper's
// determinism guarantee extended to a crashing, elastic machine set.
// Run under -race to also prove the recovery machinery is race-free.
//
// The workloads are restricted to what crash recovery soundly covers:
// flat tasks (no tasks creating tasks), accesses held to completion (no
// early EndAccess, no commute), and coordinator-side allocation. See
// DESIGN.md §4.13 for why each exclusion exists.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/exec/live"
	"repro/internal/exec/live/livetest"
	"repro/internal/rt"
)

const (
	cRead  = iota // read all elements into the accumulator
	cWrite        // overwrite all elements (pure write, no read)
	cRdWr         // read-modify-write all elements
	cDf           // deferred rd_wr: convert mid-body, then read-modify-write
	numCKinds
)

// cop is one shared-object operation of a flat chaos task.
type cop struct {
	kind int
	obj  int
}

func chaosSeed(index int) int64 { return int64(index)*2654435761 + 12345 }

// genChaosTasks builds nTasks flat tasks of 1–3 operations each. A
// deferred op is only kept when it is the task's sole touch of that
// object; mixing deferred and immediate rights on one object in one
// declaration is promoted to an immediate read-write.
func genChaosTasks(rng *rand.Rand, nTasks, nObjects int) [][]cop {
	tasks := make([][]cop, nTasks)
	for i := range tasks {
		ops := make([]cop, 1+rng.Intn(3))
		count := map[int]int{}
		for j := range ops {
			ops[j] = cop{kind: rng.Intn(numCKinds), obj: rng.Intn(nObjects)}
			count[ops[j].obj]++
		}
		for j, o := range ops {
			if o.kind == cDf && count[o.obj] > 1 {
				ops[j].kind = cRdWr
			}
		}
		tasks[i] = ops
	}
	return tasks
}

// applyOp runs one operation's arithmetic. Shared between the serial
// oracle and the parallel bodies so the semantics cannot drift.
func applyOp(kind int, o []int64, acc int64) int64 {
	switch kind {
	case cRead:
		for _, v := range o {
			acc = acc*31 + v
		}
	case cWrite:
		for k := range o {
			o[k] = acc + int64(k)
		}
	case cRdWr, cDf:
		for k := range o {
			o[k] += acc
			acc = acc*31 + o[k]
		}
	}
	return acc
}

// chaosSerial is the oracle: every task body runs at its creation point.
func chaosSerial(tasks [][]cop, data [][]int64, res []int64) {
	for i, ops := range tasks {
		acc := chaosSeed(i)
		for _, op := range ops {
			acc = applyOp(op.kind, data[op.obj], acc)
		}
		res[i] = acc
	}
}

// chaosDecls computes one task's declaration: the union of its ops'
// modes per object, plus a write on its result slot.
func chaosDecls(ops []cop, dataIDs []access.ObjectID, resID access.ObjectID) []access.Decl {
	modes := map[int]access.Mode{}
	for _, op := range ops {
		switch op.kind {
		case cRead:
			modes[op.obj] |= access.Read
		case cWrite:
			modes[op.obj] |= access.Write
		case cRdWr:
			modes[op.obj] |= access.ReadWrite
		case cDf:
			modes[op.obj] |= access.DeferredReadWrite
		}
	}
	var decls []access.Decl
	for o, m := range modes {
		decls = append(decls, access.Decl{Object: dataIDs[o], Mode: m})
	}
	decls = append(decls, access.Decl{Object: resID, Mode: access.Write})
	return decls
}

// chaosBody executes one task through rt.TC, holding every view to
// completion (the crash-sound discipline).
func chaosBody(tc rt.TC, index int, ops []cop, dataIDs []access.ObjectID, resID access.ObjectID) {
	acc := chaosSeed(index)
	converted := map[int]bool{}
	for _, op := range ops {
		obj := dataIDs[op.obj]
		mode := access.ReadWrite
		switch op.kind {
		case cRead:
			mode = access.Read
		case cWrite:
			mode = access.Write
		case cDf:
			if !converted[op.obj] {
				if err := tc.Convert(obj, access.DeferredReadWrite); err != nil {
					panic(err)
				}
				converted[op.obj] = true
			}
		}
		v, err := tc.Access(obj, mode)
		if err != nil {
			panic(err)
		}
		acc = applyOp(op.kind, v.([]int64), acc)
	}
	rv, err := tc.Access(resID, access.Write)
	if err != nil {
		panic(err)
	}
	rv.([]int64)[0] = acc
}

// chaosRun executes the generated program on a scripted cluster and
// checks bit-identity against the serial oracle.
func chaosRun(t *testing.T, name string, tasks [][]cop, nObjects, objLen int, opts livetest.Options) *livetest.Cluster {
	t.Helper()
	c, err := livetest.New(opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	chaosCheck(t, name, c.X, tasks, nObjects, objLen)
	if serr := c.Err(); serr != nil {
		t.Fatalf("%s: script: %v", name, serr)
	}
	return c
}

// chaosCheck runs the generated program on x and checks that the result
// is bit-identical to the serial oracle's and that no task was lost.
func chaosCheck(t *testing.T, name string, x *live.Exec, tasks [][]cop, nObjects, objLen int) {
	t.Helper()
	wantData := make([][]int64, nObjects)
	for i := range wantData {
		wantData[i] = make([]int64, objLen)
		for k := range wantData[i] {
			wantData[i][k] = int64(i*10 + k)
		}
	}
	wantRes := make([]int64, len(tasks))
	chaosSerial(tasks, wantData, wantRes)

	dataIDs := make([]access.ObjectID, nObjects)
	resIDs := make([]access.ObjectID, len(tasks))
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
		for i, ops := range tasks {
			i, ops := i, ops
			err := tc.Create(chaosDecls(ops, dataIDs, resIDs[i]),
				rt.TaskOpts{Label: fmt.Sprintf("t%d", i)},
				func(ctc rt.TC) {
					chaosBody(ctc, i, ops, dataIDs, resIDs[i])
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
				t.Fatalf("%s: data object %d[%d] = %d, want %d (serial)", name, i, k, got[k], wantData[i][k])
			}
		}
	}
	for i := range resIDs {
		if got := x.ObjectValue(resIDs[i]).([]int64)[0]; got != wantRes[i] {
			t.Fatalf("%s: task %d result = %d, want %d (serial)", name, i, got, wantRes[i])
		}
	}
	if st := x.Engine().Stats(); st.TasksCreated != uint64(len(tasks)) || st.TasksCompleted != st.TasksCreated+1 {
		// Completed includes the main program; Created does not.
		t.Fatalf("%s: engine created %d / completed %d tasks, program has %d (lost tasks?)",
			name, st.TasksCreated, st.TasksCompleted, len(tasks))
	}
}

// TestChaosMembershipStress is the property test: randomized seeded
// kill/join schedules (at most 2 kills, always keeping at least one
// active worker) over random flat programs — no deadlock, no lost
// tasks, bit-identical results, and the fault counters account for
// every scripted event.
func TestChaosMembershipStress(t *testing.T) {
	const (
		workers  = 3
		nObjects = 5
		objLen   = 4
		nTasks   = 40
	)
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tasks := genChaosTasks(rng, nTasks, nObjects)

		// Build a schedule: 2–4 membership events at increasing
		// retirement counts, tracking the alive set so at least one
		// worker always survives and kills never target a dead machine.
		alive := map[int]bool{}
		for m := 1; m <= workers; m++ {
			alive[m] = true
		}
		nextM := workers + 1
		kills, joins := 0, 0
		var script []livetest.Step
		after := 2 + rng.Intn(3)
		for len(script) < 2+rng.Intn(3) {
			s := livetest.Step{AfterDone: after}
			if kills < 2 && len(alive) > 1 && rng.Intn(2) == 0 {
				victims := make([]int, 0, len(alive))
				for m := range alive {
					victims = append(victims, m)
				}
				v := victims[rng.Intn(len(victims))]
				s.Kill = v
				delete(alive, v)
				kills++
			} else {
				s.Join = 1
				alive[nextM] = true
				nextM++
				joins++
			}
			script = append(script, s)
			after += 1 + rng.Intn(5)
		}
		if kills == 0 {
			// Every schedule must crash something: pick any survivor
			// but one.
			for m := range alive {
				if len(alive) == 1 {
					break
				}
				script = append(script, livetest.Step{AfterDone: after, Kill: m})
				delete(alive, m)
				kills++
				break
			}
		}

		name := fmt.Sprintf("seed=%d/kills=%d/joins=%d", seed, kills, joins)
		c := chaosRun(t, name, tasks, nObjects, objLen, livetest.Options{
			Workers: workers,
			Script:  script,
		})
		if fired := c.Fired(); fired != len(script) {
			t.Fatalf("%s: only %d of %d script steps fired", name, fired, len(script))
		}
		fs := c.X.Stats().Fault
		if int(fs.CrashesInjected) != kills {
			t.Fatalf("%s: CrashesInjected = %d, want %d", name, fs.CrashesInjected, kills)
		}
		if int(fs.CrashesDetected) != kills {
			t.Fatalf("%s: CrashesDetected = %d, want %d", name, fs.CrashesDetected, kills)
		}
		if int(fs.WorkersJoined) != joins {
			t.Fatalf("%s: WorkersJoined = %d, want %d", name, fs.WorkersJoined, joins)
		}
	}
}

// TestChaosDrain: a graceful drain mid-run retires the worker without
// losing determinism, and the departure is counted.
func TestChaosDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tasks := genChaosTasks(rng, 30, 4)
	c := chaosRun(t, "drain", tasks, 4, 4, livetest.Options{
		Workers: 2,
		Script:  []livetest.Step{{AfterDone: 3, Drain: 1}},
	})
	// No poll: Run joins the drain's completion before it returns.
	if fs := c.X.Stats().Fault; fs.WorkersDrained != 1 {
		t.Fatalf("WorkersDrained = %d right after Run, want 1", fs.WorkersDrained)
	}
	active, draining, dead, left := c.X.Members()
	if left != 1 || draining != 0 || dead != 0 || active != 1 {
		t.Fatalf("Members() = (active %d, draining %d, dead %d, left %d), want (1, 0, 0, 1)",
			active, draining, dead, left)
	}
}

// TestChaosKillAndRecover pins the recovery counters on a deterministic
// schedule: one kill mid-run must re-execute the victim's in-flight
// tasks and rebuild its directory entries, and the run still matches
// the oracle (checked inside chaosRun).
func TestChaosKillAndRecover(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tasks := genChaosTasks(rng, 40, 4)
	c := chaosRun(t, "kill", tasks, 4, 4, livetest.Options{
		Workers: 2,
		Script:  []livetest.Step{{AfterDone: 4, Kill: 2}},
	})
	// No sleep, no poll: Run joins the recovery before it returns, so the
	// counters are final the moment it does.
	fs := c.X.Stats().Fault
	if fs.CrashesInjected != 1 || fs.CrashesDetected != fs.CrashesInjected {
		t.Fatalf("crash counters = (%d injected, %d detected), want (1, 1)", fs.CrashesInjected, fs.CrashesDetected)
	}
	if fs.RecoveryTime <= 0 {
		t.Fatalf("RecoveryTime = %v right after Run, want > 0 (recovery still in flight?)", fs.RecoveryTime)
	}
	active, _, dead, _ := c.X.Members()
	if active != 1 || dead != 1 {
		t.Fatalf("Members() active = %d, dead = %d, want 1, 1", active, dead)
	}
}
