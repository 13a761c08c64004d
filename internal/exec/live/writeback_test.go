package live

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/exec/exectest"
	"repro/internal/format"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/transport/wire"
)

// sendTap records every frame the coordinator sends to a worker, on top of
// what tapConn records coming back.
type sendTap struct {
	tapConn
	sent []*wire.Frame
}

func (c *sendTap) Send(msg []byte) error {
	if f, err := wire.Decode(msg); err == nil {
		c.mu.Lock()
		c.sent = append(c.sent, &f)
		c.mu.Unlock()
	}
	return c.Conn.Send(msg)
}

// newTappedFleet builds a coordinator with n in-process workers, every
// connection recorded in both directions.
func newTappedFleet(t *testing.T, n int, opts Options) (*Exec, []*sendTap) {
	t.Helper()
	bodies := NewBodyTable()
	taps := make([]*sendTap, n)
	opts.Peers = make([]transport.Conn, n)
	for i := range taps {
		a, b := inproc.Pipe()
		taps[i] = &sendTap{tapConn: tapConn{Conn: a}}
		opts.Peers[i] = taps[i]
		go Serve(b, WorkerOptions{Name: fmt.Sprintf("w%d", i+1), Bodies: bodies})
	}
	opts.Bodies = bodies
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return x, taps
}

// writebacksOf lists the objects a frame writes back.
func writebacksOf(f *wire.Frame) []access.ObjectID {
	var objs []access.ObjectID
	for recs := f.Writebacks; len(recs) > 0; {
		wb, rest, ok := wire.NextWriteback(recs)
		if !ok {
			panic("a decoded frame holds a malformed write-back section")
		}
		objs = append(objs, access.ObjectID(wb.Obj))
		recs = rest
	}
	return objs
}

// carried reports whether some frame of the given type, received from any
// worker, wrote obj back.
func carried(taps []*sendTap, typ byte, obj access.ObjectID) bool {
	for _, tap := range taps {
		for _, f := range tap.taskFrames() {
			if f.Type != typ {
				continue
			}
			for _, o := range writebacksOf(f) {
				if o == obj {
					return true
				}
			}
		}
	}
	return false
}

// checkCachedLocked is the invariant the protocol establishes, as far as
// the coordinator's own state can show it: whatever generation of an object
// the cache lacks was granted to a task that has not completed. Requires
// x.coh.
func checkCachedLocked(x *Exec) error {
	for _, d := range x.dir.Entries() {
		if d.Owner == 0 || x.cacheVer[d.Object] == d.Version {
			continue
		}
		w := x.dir.Writer(d, d.Version)
		if w == nil || w.State() == core.Done {
			return fmt.Errorf("object #%d (%s) is at generation %d on machine %d, the cache holds %d, and no running task holds the write",
				d.Object, d.Label, d.Version, d.Owner, x.cacheVer[d.Object])
		}
	}
	return nil
}

// TestCommittedImpliesCached: at every retirement of every program of the
// conformance matrix — hierarchy, with-cont, commuting updates, inline
// children — each generation the coordinator's cache does not hold belongs
// to a writer that is still running, and once Run returns the cache holds
// the current generation of everything. This is what lets staging, the
// final read-back and the recovery sweep use the cache without asking any
// worker for anything.
func TestCommittedImpliesCached(t *testing.T) {
	for _, maxLive := range []int{0, 2} {
		for _, spec := range conformanceSpecs() {
			var x *Exec
			var mu sync.Mutex
			var broken error
			x = newInproc(t, 3, Options{MaxLiveTasks: maxLive, OnTaskDone: func(int) {
				x.coh.Lock()
				err := checkCachedLocked(x)
				x.coh.Unlock()
				mu.Lock()
				if broken == nil {
					broken = err
				}
				mu.Unlock()
			}})
			got, _, err := exectest.RunOn(x, spec)
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			if broken != nil {
				t.Fatalf("%+v: mid-run: %v", spec, broken)
			}
			if want := exectest.RunSerial(spec); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%+v: result %v, want %v (serial)", spec, got, want)
			}
			x.coh.Lock()
			for _, d := range x.dir.Entries() {
				if x.cacheVer[d.Object] != d.Version {
					t.Errorf("%+v: after Run object #%d is at generation %d, the cache at %d", spec, d.Object, d.Version, x.cacheVer[d.Object])
				}
			}
			x.coh.Unlock()
		}
	}
}

// choleskySteps lists the tasks of a right-looking Cholesky factorization
// of a dense n×n matrix held column by column: {k, -1} is cdiv(k), which
// scales column k; {j, k} is cmod(j, k), which updates column j with it.
func choleskySteps(n int) (steps [][2]int) {
	for k := 0; k < n; k++ {
		steps = append(steps, [2]int{k, -1})
		for j := k + 1; j < n; j++ {
			steps = append(steps, [2]int{j, k})
		}
	}
	return steps
}

// choleskyStep performs one such task on the columns col hands it.
func choleskyStep(n int, step [2]int, col func(int) []float64) {
	j, k := step[0], step[1]
	if k < 0 {
		c := col(j)
		d := math.Sqrt(c[j])
		for i := j; i < n; i++ {
			c[i] /= d
		}
		return
	}
	cj, ck := col(j), col(k)
	for i := j; i < n; i++ {
		cj[i] -= ck[i] * ck[j]
	}
}

func choleskyInput(n int) [][]float64 {
	cols := make([][]float64, n)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = 1 / float64(1+i+j)
		}
		cols[j][j] += float64(n)
	}
	return cols
}

// TestCholeskyAsksWorkersForNothing: on a crash-free Cholesky run over four
// workers the coordinator never sends a worker a request — every frame it
// sends is a welcome, a dispatch, an object push, an invalidation, or the
// goodbye; there is no pull to send any more — and each task puts exactly
// one frame on the wire, its completion, which carries the column it wrote.
// The factor matches the serial one bit for bit, read from the cache alone.
func TestCholeskyAsksWorkersForNothing(t *testing.T) {
	const n = 10
	want := choleskyInput(n)
	steps := choleskySteps(n)
	for _, s := range steps {
		choleskyStep(n, s, func(j int) []float64 { return want[j] })
	}

	x, taps := newTappedFleet(t, 4, Options{})
	ids := make([]access.ObjectID, n)
	err := x.Run(func(tc rt.TC) {
		for j, c := range choleskyInput(n) {
			id, err := tc.Alloc(c, fmt.Sprintf("col%d", j))
			if err != nil {
				panic(err)
			}
			ids[j] = id
		}
		for _, s := range steps {
			s := s
			decls := []access.Decl{{Object: ids[s[0]], Mode: access.ReadWrite}}
			if s[1] >= 0 {
				decls = append(decls, access.Decl{Object: ids[s[1]], Mode: access.Read})
			}
			err := tc.Create(decls, rt.TaskOpts{Label: fmt.Sprintf("step(%d,%d)", s[0], s[1])}, func(body rt.TC) {
				choleskyStep(n, s, func(j int) []float64 {
					m := access.Read
					if j == s[0] {
						m = access.ReadWrite
					}
					v, err := body.Access(ids[j], m)
					if err != nil {
						panic(err)
					}
					return v.([]float64)
				})
			})
			if err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, id := range ids {
		got := x.ObjectValue(id).([]float64)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[j][i]) {
				t.Fatalf("column %d row %d = %v, want %v (serial)", j, i, got[i], want[j][i])
			}
		}
	}
	pushes := map[byte]bool{wire.TObjImage: true, wire.TObjPatch: true, wire.TObjZero: true}
	done := 0
	for m, tap := range taps {
		tap.mu.Lock()
		sent := tap.sent
		tap.mu.Unlock()
		for _, f := range sent {
			ok := f.Type == wire.TWelcome || f.Type == wire.TDispatch || f.Type == wire.TInvalidate || f.Type == wire.TBye || pushes[f.Type]
			if !ok || f.Req != 0 {
				t.Errorf("coordinator sent worker %d a %s frame (req %d): it should have nothing to ask", m+1, wire.TypeName(f.Type), f.Req)
			}
		}
		for _, f := range tap.taskFrames() {
			if f.Type != wire.TTaskDone {
				t.Errorf("worker %d sent%s: a task whose accesses were all pre-granted sends its completion and nothing else", m+1, describe([]*wire.Frame{f}))
				continue
			}
			done++
			if wbs := writebacksOf(f); len(wbs) != 1 {
				t.Errorf("a completion wrote back %v, want exactly the one column its task updated", wbs)
			}
		}
	}
	if done != len(steps) {
		t.Errorf("%d completions for %d tasks", done, len(steps))
	}
}

// relay is the body of a task that copies the first element of src into
// res: the "successor" of the tests below, which can only have got src's
// bytes from the coordinator's cache.
func relay(src, res access.ObjectID) ([]access.Decl, func(rt.TC)) {
	decls := []access.Decl{{Object: src, Mode: access.Read}, {Object: res, Mode: access.ReadWrite}}
	return decls, func(tc rt.TC) {
		mustAccess(tc, res, access.ReadWrite)[0] = mustAccess(tc, src, access.Read)[0]
	}
}

func mustCreate(tc rt.TC, decls []access.Decl, opts rt.TaskOpts, body func(rt.TC)) {
	if err := tc.Create(decls, opts, body); err != nil {
		panic(err)
	}
}

// onMachine pins a task to worker machine m.
func onMachine(label string, m int) rt.TaskOpts { return rt.TaskOpts{Label: label, Pin: m + 1} }

// TestWritebackPrecedesItsCarrier: whatever frame releases a write, the
// task the release enables — on another worker — sees what was written,
// and the frame that carried the bytes is the releasing frame itself. In
// the cases where the writer keeps running after the release, it refuses to
// finish until the successor has, so the bytes cannot have travelled with a
// later frame.
func TestWritebackPrecedesItsCarrier(t *testing.T) {
	type probe struct {
		name    string
		maxLive int
		carrier byte
		// program returns the object whose write-back to look for (known
		// for certain only once the run is over) and the object the
		// successor copied it into.
		program func(tc rt.TC) (written *access.ObjectID, res access.ObjectID)
		want    int64
	}
	probes := []probe{
		{name: "task-done", carrier: wire.TTaskDone, want: 7, program: func(tc rt.TC) (*access.ObjectID, access.ObjectID) {
			ids := allocN(tc, 2)
			o, res := ids[0], ids[1]
			mustCreate(tc, []access.Decl{{Object: o, Mode: access.ReadWrite}}, onMachine("writer", 1), func(b rt.TC) {
				mustAccess(b, o, access.ReadWrite)[0] = 7
			})
			decls, body := relay(o, res)
			mustCreate(tc, decls, onMachine("successor", 2), body)
			return &o, res
		}},
		{name: "end-access", carrier: wire.TEndAccess, want: 8, program: func(tc rt.TC) (*access.ObjectID, access.ObjectID) {
			ids := allocN(tc, 2)
			o, res := ids[0], ids[1]
			seen := make(chan struct{})
			parent := []access.Decl{{Object: o, Mode: access.ReadWrite}, {Object: res, Mode: access.ReadWrite}}
			mustCreate(tc, parent, onMachine("writer", 1), func(b rt.TC) {
				mustAccess(b, o, access.ReadWrite)[0] = 8
				b.EndAccess(o, access.ReadWrite)
				decls, body := relay(o, res)
				mustCreate(b, decls, onMachine("successor", 2), func(c rt.TC) { body(c); close(seen) })
				<-seen
			})
			return &o, res
		}},
		{name: "clear-access-of-a-worker-alloc", carrier: wire.TClearAccess, want: 9, program: func(tc rt.TC) (*access.ObjectID, access.ObjectID) {
			res := allocN(tc, 1)[0]
			var o access.ObjectID
			seen := make(chan struct{})
			mustCreate(tc, []access.Decl{{Object: res, Mode: access.ReadWrite}}, onMachine("writer", 1), func(b rt.TC) {
				var err error
				if o, err = b.Alloc([]int64{1}, "born on a worker"); err != nil {
					panic(err)
				}
				mustAccess(b, o, access.ReadWrite)[0] = 9
				b.ClearAccess(o)
				decls, body := relay(o, res)
				mustCreate(b, decls, onMachine("successor", 2), func(c rt.TC) { body(c); close(seen) })
				<-seen
			})
			return &o, res
		}},
		{name: "retract", carrier: wire.TRetractReq, want: 10, program: func(tc rt.TC) (*access.ObjectID, access.ObjectID) {
			ids := allocN(tc, 2)
			o, res := ids[0], ids[1]
			seen := make(chan struct{})
			mustCreate(tc, []access.Decl{{Object: o, Mode: access.ReadWrite}}, onMachine("writer", 1), func(b rt.TC) {
				mustAccess(b, o, access.ReadWrite)[0] = 10
				if err := b.Retract(o, access.AnyWrite|access.AnyRead); err != nil { // no_wr, no_rd
					panic(err)
				}
				<-seen
			})
			decls, body := relay(o, res)
			mustCreate(tc, decls, onMachine("successor", 2), func(c rt.TC) { body(c); close(seen) })
			return &o, res
		}},
		{name: "commute", carrier: wire.TEndAccess, want: 11, program: func(tc rt.TC) (*access.ObjectID, access.ObjectID) {
			ids := allocN(tc, 2)
			o, res := ids[0], ids[1] // o starts at 0
			released, seen := make(chan struct{}), make(chan struct{})
			mustCreate(tc, []access.Decl{{Object: o, Mode: access.Commute}}, onMachine("first", 1), func(b rt.TC) {
				mustAccess(b, o, access.Commute)[0] += 5
				b.EndAccess(o, access.Commute)
				close(released)
				<-seen
			})
			// Commuting tasks may run in either order; this pair is made to
			// run first-then-second, with the first still running while the
			// second, elsewhere, adds to what the first left in the object.
			decls := []access.Decl{{Object: o, Mode: access.Commute}, {Object: res, Mode: access.ReadWrite}}
			mustCreate(tc, decls, onMachine("second", 2), func(b rt.TC) {
				<-released
				v := mustAccess(b, o, access.Commute)
				v[0] += 6
				mustAccess(b, res, access.ReadWrite)[0] = v[0]
				b.EndAccess(o, access.Commute)
				close(seen)
			})
			return &o, res
		}},
		{name: "inline-child", maxLive: 1, carrier: wire.TTaskDone, want: 12, program: func(tc rt.TC) (*access.ObjectID, access.ObjectID) {
			ids := allocN(tc, 2)
			o, res := ids[0], ids[1]
			parent := []access.Decl{{Object: o, Mode: access.ReadWrite}, {Object: res, Mode: access.ReadWrite}}
			mustCreate(tc, parent, onMachine("parent", 1), func(b rt.TC) {
				// Over the live-task bound: the child runs inline, on this
				// worker, as a task of its own.
				mustCreate(b, []access.Decl{{Object: o, Mode: access.ReadWrite}}, rt.TaskOpts{Label: "inline"}, func(c rt.TC) {
					mustAccess(c, o, access.ReadWrite)[0] = 12
				})
			})
			decls, body := relay(o, res)
			mustCreate(tc, decls, onMachine("successor", 2), body)
			return &o, res
		}},
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			x, taps := newTappedFleet(t, 2, Options{MaxLiveTasks: p.maxLive})
			var written *access.ObjectID
			var res access.ObjectID
			if err := x.Run(func(tc rt.TC) { written, res = p.program(tc) }); err != nil {
				t.Fatal(err)
			}
			if got := x.ObjectValue(res).([]int64)[0]; got != p.want {
				t.Errorf("the successor saw %d, want %d", got, p.want)
			}
			if !carried(taps, p.carrier, *written) {
				var all []*wire.Frame
				for _, tap := range taps {
					all = append(all, tap.taskFrames()...)
				}
				t.Errorf("no %s frame wrote object #%d back; the workers sent%s", wire.TypeName(p.carrier), *written, describe(all))
			}
			x.coh.Lock()
			defer x.coh.Unlock()
			if err := checkCachedLocked(x); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestUnusedAndWriteOnlyGrantsComeHome: a write the coordinator granted
// counts a generation whether or not the task used it, so the worker writes
// it back all the same — an empty patch for a grant never used, the whole
// buffer for a write-only grant (which was given zeroes, not the old
// contents). Afterwards the cache is at the directory's generation for both,
// and a task staged from it sees what a serial run would.
func TestUnusedAndWriteOnlyGrantsComeHome(t *testing.T) {
	x, taps := newTappedFleet(t, 2, Options{})
	var unused, wo, res access.ObjectID
	err := x.Run(func(tc rt.TC) {
		ids := allocN(tc, 3) // holding 0, 1, 2
		unused, wo, res = ids[0], ids[1], ids[2]
		decls := []access.Decl{{Object: unused, Mode: access.ReadWrite}, {Object: wo, Mode: access.Write}}
		mustCreate(tc, decls, onMachine("writer", 1), func(b rt.TC) {
			mustAccess(b, wo, access.Write)[0] = 41
		})
		mustCreate(tc, []access.Decl{{Object: unused, Mode: access.Read}, {Object: wo, Mode: access.Read}, {Object: res, Mode: access.ReadWrite}},
			onMachine("successor", 2), func(b rt.TC) {
				mustAccess(b, res, access.ReadWrite)[0] = mustAccess(b, unused, access.Read)[0] + mustAccess(b, wo, access.Read)[0]
			})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.ObjectValue(res).([]int64)[0]; got != 0+41 {
		t.Errorf("successor computed %d, want 41", got)
	}
	if !carried(taps, wire.TTaskDone, unused) || !carried(taps, wire.TTaskDone, wo) {
		t.Errorf("worker 1 sent%s, want a completion writing back both grants", describe(taps[0].taskFrames()))
	}
	for _, f := range taps[0].taskFrames() {
		for recs := f.Writebacks; len(recs) > 0; {
			wb, rest, _ := wire.NextWriteback(recs)
			recs = rest
			if access.ObjectID(wb.Obj) == wo && wb.Patch {
				t.Error("the write-only grant came back as a patch; the worker was given no base to diff against")
			}
			if access.ObjectID(wb.Obj) == unused && !wb.Patch {
				t.Error("the unused grant came back as a full image; nothing changed since the push")
			}
		}
	}
	x.coh.Lock()
	defer x.coh.Unlock()
	for _, obj := range []access.ObjectID{unused, wo} {
		if d := x.dir.Entry(obj); x.cacheVer[obj] != d.Version || d.Version == 0 {
			t.Errorf("object #%d: directory at generation %d, cache at %d", obj, d.Version, x.cacheVer[obj])
		}
	}
}

// TestWritebacksLeaveInGrantOrder: a completion writes back the rights its
// task still holds in the order they were granted — the dispatch's
// pre-grants in object order, then a write granted mid-body — whatever order
// the task declared or used them in.
func TestWritebacksLeaveInGrantOrder(t *testing.T) {
	x, taps := newTappedFleet(t, 1, Options{})
	var want []access.ObjectID
	err := x.Run(func(tc rt.TC) {
		ids := allocN(tc, 7)
		late, pre := ids[0], ids[1:]
		decls := []access.Decl{{Object: late, Mode: access.DeferredReadWrite}}
		for _, k := range []int{3, 0, 5, 1, 4, 2} {
			decls = append(decls, access.Decl{Object: pre[k], Mode: access.ReadWrite})
		}
		want = append(append(want, pre...), late)
		mustCreate(tc, decls, rt.TaskOpts{Label: "writer"}, func(b rt.TC) {
			for _, k := range []int{2, 5, 0} {
				mustAccess(b, pre[k], access.ReadWrite)[0] += 10
			}
			if err := b.Convert(late, access.DeferredReadWrite); err != nil {
				panic(err)
			}
			mustAccess(b, late, access.ReadWrite)[0] += 10
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var done *wire.Frame
	for _, f := range taps[0].taskFrames() {
		if f.Type == wire.TTaskDone {
			done = f
		}
	}
	if done == nil {
		t.Fatalf("the worker sent%s, want a completion", describe(taps[0].taskFrames()))
	}
	if got := writebacksOf(done); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("the completion wrote back %v, want %v", got, want)
	}
	// allocN gave the i-th object the value i; the task added 10 to the
	// ones it touched.
	for i, add := range []int64{10, 10, 0, 10, 0, 0, 10} {
		if got := x.ObjectValue(want[len(want)-1] + access.ObjectID(i)).([]int64)[0]; got != int64(i)+add {
			t.Errorf("object %d holds %d after the run, want %d", i, got, int64(i)+add)
		}
	}
}

// runWriter runs one task that declares rd_wr on the first of two objects
// the main program allocates (ids 1 and 2, holding 0 and 1), on a scripted
// worker that answers the dispatch with whatever reply builds from the
// task id and the generation the dispatch named for the grant. A second
// task then reads the object, on the same worker.
func runWriter(t *testing.T, reply func(task, gen uint64) *wire.Frame) error {
	t.Helper()
	var first uint64
	x := newScripted(t, func(f *wire.Frame, send func(*wire.Frame)) {
		if f.Type != wire.TDispatch {
			return
		}
		if first != 0 && f.Task != first {
			send(&wire.Frame{Type: wire.TTaskDone, Task: f.Task})
			return
		}
		first = f.Task
		_, writes, _, err := unmarshalDispatchPayload(f.Payload, nil, nil)
		if err != nil || len(writes) != 1 || writes[0].obj != 1 {
			t.Errorf("dispatch payload: %v, write grants %v", err, writes)
			return
		}
		send(reply(f.Task, writes[0].gen))
	})
	return x.Run(func(tc rt.TC) {
		obj := allocN(tc, 2)[0]
		mustCreate(tc, []access.Decl{{Object: obj, Mode: access.ReadWrite}}, rt.TaskOpts{Label: "writer"}, func(rt.TC) {})
		mustCreate(tc, []access.Decl{{Object: obj, Mode: access.Read}}, rt.TaskOpts{Label: "reader"}, func(rt.TC) {})
	})
}

// TestMalformedWritebacks: what a broken or hostile worker can put in the
// write-back section ends the run with an error, never a panic and never a
// silent change to the cache. The section itself is length-checked at
// decode; a well-formed record is believed only if the directory granted
// that generation of that object to that task, and a patch only against
// the generation the cache holds.
func TestMalformedWritebacks(t *testing.T) {
	image, err := format.Encode([]int64{5}, format.LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	le := byte(format.LittleEndian)
	done := func(task uint64, wbs ...wire.Writeback) *wire.Frame {
		f := &wire.Frame{Type: wire.TTaskDone, Task: task}
		for _, wb := range wbs {
			f.Writebacks = wire.AppendWriteback(f.Writebacks, wb)
		}
		return f
	}
	cases := []struct {
		name, want string
		reply      func(task, gen uint64) *wire.Frame
	}{
		{"a good record", "", func(task, gen uint64) *wire.Frame {
			return done(task, wire.Writeback{Obj: 1, Gen: gen, Order: le, Payload: image})
		}},
		{"ragged section", "corrupt", func(task, gen uint64) *wire.Frame {
			return &wire.Frame{Type: wire.TTaskDone, Task: task, Writebacks: make([]byte, 7)}
		}},
		{"wrong base", "patch base 99", func(task, gen uint64) *wire.Frame {
			return done(task, wire.Writeback{Obj: 1, Gen: gen, Base: 99, Order: le, Patch: true})
		}},
		{"wrong generation", "was not granted", func(task, gen uint64) *wire.Frame {
			return done(task, wire.Writeback{Obj: 1, Gen: gen + 1, Order: le, Payload: image})
		}},
		{"undeclared object", "was not granted", func(task, gen uint64) *wire.Frame {
			return done(task, wire.Writeback{Obj: 2, Gen: 1, Order: le, Payload: image})
		}},
		{"no such object", "no such object", func(task, gen uint64) *wire.Frame {
			return done(task, wire.Writeback{Obj: 999, Gen: 1, Order: le, Payload: image})
		}},
		{"the same generation twice", "was not granted", func(task, gen uint64) *wire.Frame {
			wb := wire.Writeback{Obj: 1, Gen: gen, Order: le, Payload: image}
			return done(task, wb, wb)
		}},
		{"unknown task", "unknown task", func(task, gen uint64) *wire.Frame {
			return done(task+1000, wire.Writeback{Obj: 1, Gen: gen, Order: le, Payload: image})
		}},
		{"payload that is no image", "unpack", func(task, gen uint64) *wire.Frame {
			return done(task, wire.Writeback{Obj: 1, Gen: gen, Order: le, Payload: []byte{0xFF, 1, 2}})
		}},
		{"no write-back at all", "without writing it back", func(task, gen uint64) *wire.Frame {
			return done(task)
		}},
	}
	for _, c := range cases {
		err := runWriter(t, c.reply)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: Run = %v, want success", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: Run = %v, want an error mentioning %q", c.name, err, c.want)
		}
	}

	// The wrong writer: the generation is real and current, but it was
	// granted to another task.
	seen := map[string]uint64{}
	x := newScripted(t, func(f *wire.Frame, send func(*wire.Frame)) {
		if f.Type != wire.TDispatch {
			return
		}
		if seen[f.Label] = f.Task; len(seen) == 2 {
			// Both are running: the second claims the first's object.
			send(done(seen["impostor"], wire.Writeback{Obj: 1, Gen: 1, Order: le, Payload: image}))
		}
	})
	err = x.Run(func(tc rt.TC) {
		ids := allocN(tc, 2)
		mustCreate(tc, []access.Decl{{Object: ids[0], Mode: access.ReadWrite}}, rt.TaskOpts{Label: "owner"}, func(rt.TC) {})
		mustCreate(tc, []access.Decl{{Object: ids[1], Mode: access.ReadWrite}}, rt.TaskOpts{Label: "impostor"}, func(rt.TC) {})
	})
	if err == nil || !strings.Contains(err.Error(), "was not granted") {
		t.Errorf("wrong writer: Run = %v, want the grant check to refuse it", err)
	}
}

var _ transport.Conn = (*sendTap)(nil)

// TestSyncBaseNeverMutated: a worker's sync base is the stored value itself
// until a write grant needs it, so the grant must un-share it. One worker
// takes two write grants on the same object in a row — the second with no
// push before it, the worker already holding the current copy — and writes
// in place each time; a task between them reads the object there. After
// each write-back the coordinator's cache holds what a serial run would,
// which it could not if either write had reached the base the patch was
// diffed against.
func TestSyncBaseNeverMutated(t *testing.T) {
	const n = 64
	writes := []func(v []int64){
		func(v []int64) { v[3] += 100 },
		func(v []int64) { v[n-1] = v[3] * 2 },
	}
	serial := [][]int64{make([]int64, n)} // the object before, and after each write
	for i := range serial[0] {
		serial[0][i] = int64(i)
	}
	for _, w := range writes {
		next := slices.Clone(serial[len(serial)-1])
		w(next)
		serial = append(serial, next)
	}

	var x *Exec
	var obj access.ObjectID
	var mu sync.Mutex
	var cached [][]int64 // the cache's copy at each retirement
	x, taps := newTappedFleet(t, 1, Options{OnTaskDone: func(int) {
		x.coh.Lock()
		v := slices.Clone(x.vals[obj].([]int64))
		x.coh.Unlock()
		mu.Lock()
		cached = append(cached, v)
		mu.Unlock()
	}})
	var read []int64
	err := x.Run(func(tc rt.TC) {
		var err error
		if obj, err = tc.Alloc(slices.Clone(serial[0]), "o"); err != nil {
			panic(err)
		}
		rw := []access.Decl{{Object: obj, Mode: access.ReadWrite}}
		mustCreate(tc, rw, onMachine("first", 1), func(b rt.TC) { writes[0](mustAccess(b, obj, access.ReadWrite)) })
		mustCreate(tc, []access.Decl{{Object: obj, Mode: access.Read}}, onMachine("reader", 1), func(b rt.TC) {
			read = slices.Clone(mustAccess(b, obj, access.Read))
		})
		mustCreate(tc, rw, onMachine("second", 1), func(b rt.TC) { writes[1](mustAccess(b, obj, access.ReadWrite)) })
	})
	if err != nil {
		t.Fatal(err)
	}
	pushes := 0
	for _, f := range taps[0].sent {
		if (f.Type == wire.TObjImage || f.Type == wire.TObjPatch) && access.ObjectID(f.Obj) == obj {
			pushes++
		}
	}
	if pushes != 1 {
		t.Fatalf("the coordinator pushed the object %d times, want once: the second write grant must find the worker's copy current", pushes)
	}
	if !slices.Equal(read, serial[1]) {
		t.Errorf("the reader saw %v, want %v", read, serial[1])
	}
	want := [][]int64{serial[1], serial[1], serial[2]}
	if len(cached) != len(want) {
		t.Fatalf("%d retirements, want %d", len(cached), len(want))
	}
	for k := range want {
		if !slices.Equal(cached[k], want[k]) {
			t.Errorf("retirement %d: the cache holds elements 3 and %d at %d and %d, a serial run %d and %d",
				k+1, n-1, cached[k][3], cached[k][n-1], want[k][3], want[k][n-1])
		}
	}
}

// TestSyncBaseSpareNeverAliasesStore: a write grant copies the stored
// value into the base the previous write-back retired, so that spare must
// be private. On one worker, in order: a write, a write grant the task
// never uses (its write-back leaves the base the stored value itself), a
// read and a write; then the main program writes, invalidating the
// worker's copy, and two more writes there, the first pushed as a patch
// into the worker's shadow. The coordinator cache matches a serial run
// after every retirement. A spare that aliases the stored value makes the
// last write on the worker diff the value against itself, and write back
// nothing.
func TestSyncBaseSpareNeverAliasesStore(t *testing.T) {
	const n = 64
	writes := []func(v []int64){
		func(v []int64) { v[3] += 100 },
		func(v []int64) { v[n-1] = v[3] * 2 },
		func(v []int64) { v[10] = -5 }, // the main program's
		func(v []int64) { v[11] += v[10] + v[n-1] },
		func(v []int64) { v[12] = v[11] - 1 },
	}
	serial := [][]int64{make([]int64, n)} // the object before, and after each write
	for i := range serial[0] {
		serial[0][i] = int64(i)
	}
	for _, w := range writes {
		next := slices.Clone(serial[len(serial)-1])
		w(next)
		serial = append(serial, next)
	}

	var x *Exec
	var obj access.ObjectID
	var mu sync.Mutex
	var cached [][]int64 // the cache's copy at each retirement
	x, taps := newTappedFleet(t, 1, Options{OnTaskDone: func(int) {
		x.coh.Lock()
		v := slices.Clone(x.vals[obj].([]int64))
		x.coh.Unlock()
		mu.Lock()
		cached = append(cached, v)
		mu.Unlock()
	}})
	var read []int64
	err := x.Run(func(tc rt.TC) {
		var err error
		if obj, err = tc.Alloc(slices.Clone(serial[0]), "o"); err != nil {
			panic(err)
		}
		rw := []access.Decl{{Object: obj, Mode: access.ReadWrite}}
		write := func(label string, k int) {
			mustCreate(tc, rw, onMachine(label, 1), func(b rt.TC) { writes[k](mustAccess(b, obj, access.ReadWrite)) })
		}
		write("first", 0)
		mustCreate(tc, rw, onMachine("unused", 1), func(rt.TC) {})
		mustCreate(tc, []access.Decl{{Object: obj, Mode: access.Read}}, onMachine("reader", 1), func(b rt.TC) {
			read = slices.Clone(mustAccess(b, obj, access.Read))
		})
		write("second", 1)
		writes[2](mustAccess(tc, obj, access.ReadWrite))
		tc.ClearAccess(obj)
		write("third", 3)
		write("fourth", 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	patches := 0
	for _, f := range taps[0].sent {
		if f.Type == wire.TObjPatch && access.ObjectID(f.Obj) == obj {
			patches++
		}
	}
	if patches != 1 {
		t.Fatalf("the coordinator pushed %d patches of the object, want 1: the write after the main program's must re-fetch into the worker's shadow", patches)
	}
	if !slices.Equal(read, serial[1]) {
		t.Errorf("the reader saw %v, want %v", read, serial[1])
	}
	want := [][]int64{serial[1], serial[1], serial[1], serial[2], serial[4], serial[5]}
	if len(cached) != len(want) {
		t.Fatalf("%d retirements, want %d", len(cached), len(want))
	}
	for k := range want {
		if !slices.Equal(cached[k], want[k]) {
			t.Errorf("retirement %d: the cache holds %v, a serial run %v", k+1, cached[k], want[k])
		}
	}

	// The copy a write grant makes lands in the spare, which it uses up.
	w := newWorker(nil, WorkerOptions{}, 0, newTenantSlots(1).view("", 0))
	v, spare := []int64{1, 2, 3}, make([]int64, 3)
	w.store[obj] = v
	w.bases[obj] = syncBase{val: v, ver: 7, spare: spare}
	w.takeLocked(obj, access.Read)
	if b := w.bases[obj]; !format.Same(b.val, v) || b.spare == nil {
		t.Fatal("a read grant un-shared the sync base")
	}
	w.takeLocked(obj, access.ReadWrite)
	if b := w.bases[obj]; !format.Same(b.val, spare) || b.spare != nil || b.ver != 7 || !slices.Equal(spare, v) {
		t.Fatalf("a write grant left the base %v (spare %v), want the spare holding %v", b.val, b.spare, v)
	}
	w.runners.Close()
}
