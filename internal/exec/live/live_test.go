package live

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/exec/exectest"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
)

// newFleet builds a coordinator with n in-process workers on transport
// tr, all sharing one closure table.
func newFleet(t *testing.T, tr string, n int, opts Options) *Exec {
	t.Helper()
	bodies := NewBodyTable()
	f, conns, err := StartFleet(tr, "", n, 0, func(i int) WorkerOptions {
		return WorkerOptions{Name: fmt.Sprintf("w%d", i+1), Bodies: bodies}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The run admits nobody else, and a listener outliving Run would read
	// as a leak.
	f.Close()
	opts.Peers = conns
	opts.Bodies = bodies
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func newInproc(t *testing.T, n int, opts Options) *Exec { return newFleet(t, "inproc", n, opts) }
func newTCP(t *testing.T, n int, opts Options) *Exec    { return newFleet(t, "tcp", n, opts) }

// conformanceSpecs is the generated-program matrix every executor must
// match against the serial oracle.
func conformanceSpecs() []exectest.ProgramSpec {
	var specs []exectest.ProgramSpec
	for seed := int64(1); seed <= 3; seed++ {
		specs = append(specs,
			exectest.ProgramSpec{Objects: 4, Tasks: 25, Seed: seed},
			exectest.ProgramSpec{Objects: 5, Tasks: 25, Seed: seed + 10, UseDeferred: true},
			exectest.ProgramSpec{Objects: 4, Tasks: 25, Seed: seed + 20, UseHierarchy: true},
			exectest.ProgramSpec{Objects: 5, Tasks: 25, Seed: seed + 30, UseCommute: true},
			exectest.ProgramSpec{Objects: 4, Tasks: 30, Seed: seed + 40, UseDeferred: true, UseHierarchy: true, UseCommute: true},
		)
	}
	return specs
}

// TestConformanceInproc: the live executor over goroutine pipes matches
// the serial reference on the full program matrix.
func TestConformanceInproc(t *testing.T) {
	for _, spec := range conformanceSpecs() {
		if err := exectest.Check(func() rt.Exec { return newInproc(t, 4, Options{}) }, spec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConformanceTCP: the same programs bit-identical over real
// loopback sockets.
func TestConformanceTCP(t *testing.T) {
	specs := conformanceSpecs()
	if testing.Short() {
		specs = specs[:5]
	}
	for _, spec := range specs {
		if err := exectest.Check(func() rt.Exec { return newTCP(t, 4, Options{}) }, spec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestThrottleInline: a tiny live-task bound forces the inline-child
// protocol (StartReq) on both the coordinator and the workers, and the
// result must not change.
func TestThrottleInline(t *testing.T) {
	spec := exectest.ProgramSpec{Objects: 4, Tasks: 30, Seed: 7, UseHierarchy: true, UseCommute: true}
	if err := exectest.Check(func() rt.Exec { return newInproc(t, 3, Options{MaxLiveTasks: 2}) }, spec); err != nil {
		t.Fatal(err)
	}
}

// TestCreateCompletionRace: a flat stream of near-empty tasks on several
// processors, where a worker finishes a task (and sends its pre-grant
// notify and its completion) while the creator is still returning from
// eng.Create. Every run must be bit-identical to the serial order, raise no
// fatal error, and leave the task table empty — a task registered after it
// retired would stay there for the recovery sweep to find.
func TestCreateCompletionRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const tasks, objects, runs = 2000, 8, 20
	step := func(v int64, i int) int64 { return v*31 + int64(i) }
	want := make([]int64, objects)
	for i := 0; i < tasks; i++ {
		want[i%objects] = step(want[i%objects], i)
	}
	for run := 0; run < runs; run++ {
		x := newInproc(t, 4, Options{})
		ids := make([]access.ObjectID, objects)
		err := x.Run(func(tc rt.TC) {
			for i := range ids {
				id, err := tc.Alloc([]int64{0}, fmt.Sprintf("obj%d", i))
				if err != nil {
					panic(err)
				}
				ids[i] = id
			}
			for i := 0; i < tasks; i++ {
				i, obj := i, ids[i%objects]
				err := tc.Create([]access.Decl{{Object: obj, Mode: access.ReadWrite}}, rt.TaskOpts{Label: "step"}, func(body rt.TC) {
					v, err := body.Access(obj, access.ReadWrite)
					if err != nil {
						panic(err)
					}
					s := v.([]int64)
					s[0] = step(s[0], i)
				})
				if err != nil {
					panic(err)
				}
			}
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for k, id := range ids {
			if got := x.ObjectValue(id).([]int64)[0]; got != want[k] {
				t.Fatalf("run %d: object %d = %d, want %d", run, k, got, want[k])
			}
		}
		x.mu.Lock()
		left := len(x.tasks)
		x.mu.Unlock()
		if left != 0 {
			t.Fatalf("run %d: %d tasks left in the table after Run", run, left)
		}
	}
}

// TestStatsPopulated: a live run reports real traffic — frames on every
// link, delta transfers once objects bounce between writers.
func TestStatsPopulated(t *testing.T) {
	x := newInproc(t, 2, Options{})
	spec := exectest.ProgramSpec{Objects: 4, Tasks: 20, Seed: 3}
	if _, _, err := exectest.RunOn(x, spec); err != nil {
		t.Fatal(err)
	}
	net := x.Stats().Net
	if net.Messages == 0 || net.Bytes == 0 {
		t.Fatalf("Stats().Net = %+v, want real traffic", net)
	}
	found := 0
	for l := range net.ByLink {
		if l.Src == 0 || l.Dst == 0 {
			found++
		}
	}
	if found == 0 {
		t.Fatal("Stats().Net.ByLink has no coordinator links")
	}
	d := x.Stats().Delta
	if d.FullTransfers == 0 {
		t.Fatalf("DeltaStats = %+v, want full transfers", d)
	}
	c := x.Counters()
	if c.TasksRun < spec.Tasks {
		t.Fatalf("TasksRun = %d, want >= %d", c.TasksRun, spec.Tasks)
	}
}

func init() {
	// doubleKind doubles every element of the object named in args.
	RegisterKind("exectest-double", func(args []byte) func(rt.TC) {
		obj := access.ObjectID(binary.LittleEndian.Uint64(args))
		return func(tc rt.TC) {
			v, err := tc.Access(obj, access.ReadWrite)
			if err != nil {
				panic(err)
			}
			for i, x := range v.([]int64) {
				v.([]int64)[i] = 2 * x
			}
			tc.EndAccess(obj, access.ReadWrite)
		}
	})
}

// TestRemoteKindWorker: a worker with a private body table (simulating
// a separate jadeworker process) can only run tasks dispatched by kind;
// the kind round-trips its argument blob and the result drains back.
func TestRemoteKindWorker(t *testing.T) {
	a, b := inproc.Pipe()
	go Serve(b, WorkerOptions{Name: "remote", Caps: []string{"gpu"}}) // nil Bodies: own process group
	x, err := New(Options{Peers: []transport.Conn{a}})
	if err != nil {
		t.Fatal(err)
	}
	var obj access.ObjectID
	err = x.Run(func(tc rt.TC) {
		obj, err = tc.Alloc([]int64{1, 2, 3}, "v")
		if err != nil {
			panic(err)
		}
		args := binary.LittleEndian.AppendUint64(nil, uint64(obj))
		err = tc.Create(
			[]access.Decl{{Object: obj, Mode: access.ReadWrite}},
			rt.TaskOpts{Label: "double", Kind: "exectest-double", KindArgs: args, RequireCap: "gpu"},
			nil)
		if err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := x.ObjectValue(obj).([]int64)
	want := []int64{2, 4, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("object = %v, want %v", got, want)
		}
	}
}

// TestClosureCannotCrossProcess: a closure-only task has no legal
// placement when the only worker is in another process group; the run
// must fail with a diagnostic instead of hanging or misdispatching.
func TestClosureCannotCrossProcess(t *testing.T) {
	a, b := inproc.Pipe()
	go Serve(b, WorkerOptions{Name: "remote"}) // own process group
	x, err := New(Options{Peers: []transport.Conn{a}})
	if err != nil {
		t.Fatal(err)
	}
	err = x.Run(func(tc rt.TC) {
		obj, err := tc.Alloc([]int64{1}, "v")
		if err != nil {
			panic(err)
		}
		err = tc.Create(
			[]access.Decl{{Object: obj, Mode: access.ReadWrite}},
			rt.TaskOpts{Label: "closure-task"},
			func(body rt.TC) {
				if _, err := body.Access(obj, access.ReadWrite); err == nil {
					body.EndAccess(obj, access.ReadWrite)
				}
			})
		if err != nil {
			panic(err)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "closure body from another process") {
		t.Fatalf("Run = %v, want closure-placement error", err)
	}
}

// TestPinToCoordinatorRejected: machine 0 is the coordinator; pinning a
// task there is a program error, reported not hung.
func TestPinToCoordinatorRejected(t *testing.T) {
	x := newInproc(t, 2, Options{})
	err := x.Run(func(tc rt.TC) {
		obj, err := tc.Alloc([]int64{1}, "v")
		if err != nil {
			panic(err)
		}
		err = tc.Create(
			[]access.Decl{{Object: obj, Mode: access.ReadWrite}},
			rt.TaskOpts{Label: "pinned", Pin: 1},
			func(body rt.TC) {})
		if err != nil {
			panic(err)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "pinned to machine 0") {
		t.Fatalf("Run = %v, want pin error", err)
	}
}
