package coherence

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/format"
)

// newTask returns a declaration-free task of eng, completed when done.
func newTask(t *testing.T, eng *core.Engine, done bool) *core.Task {
	t.Helper()
	task, err := eng.Create(eng.Root(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		if err := eng.Start(task); err != nil {
			t.Fatal(err)
		}
		if err := eng.Complete(task); err != nil {
			t.Fatal(err)
		}
	}
	return task
}

// checkDirectory asserts the invariants every host relies on between
// transitions.
func checkDirectory(t *testing.T, d *Directory, lost map[int]bool, lastVer map[access.ObjectID]uint64) {
	t.Helper()
	for _, e := range d.Entries() {
		if !e.Holds(e.Owner) {
			t.Fatalf("object #%d: owner %d not among holders %v", e.Object, e.Owner, e.Holders())
		}
		if !sort.IntsAreSorted(e.Holders()) {
			t.Fatalf("object #%d: holders %v not ascending", e.Object, e.Holders())
		}
		for i, c := range e.Holders() {
			if i > 0 && c == e.Holders()[i-1] {
				t.Fatalf("object #%d: holder %d listed twice in %v", e.Object, c, e.Holders())
			}
			if lost[c] {
				t.Fatalf("object #%d: lost machine %d still holds a copy", e.Object, c)
			}
			if gen, ok := e.ShadowGen(c); ok {
				t.Fatalf("object #%d: holder %d also has a shadow (gen %d)", e.Object, c, gen)
			}
		}
		if lost[e.Owner] {
			t.Fatalf("object #%d: owned by lost machine %d", e.Object, e.Owner)
		}
		if e.Version < lastVer[e.Object] {
			t.Fatalf("object #%d: version went back %d -> %d", e.Object, lastVer[e.Object], e.Version)
		}
		lastVer[e.Object] = e.Version
		seen := map[int]bool{}
		for _, s := range e.shadows {
			if lost[s.machine] {
				t.Fatalf("object #%d: lost machine %d still has a shadow", e.Object, s.machine)
			}
			if seen[s.machine] {
				t.Fatalf("object #%d: machine %d has two shadows: %v", e.Object, s.machine, e.shadows)
			}
			seen[s.machine] = true
			if s.gen >= e.Version {
				t.Fatalf("object #%d: machine %d's shadow at generation %d, not below version %d", e.Object, s.machine, s.gen, e.Version)
			}
		}
		for i, w := range e.hist {
			if w.Version > e.Version {
				t.Fatalf("object #%d: history generation %d above version %d", e.Object, w.Version, e.Version)
			}
			if i > 0 && w.Version <= e.hist[i-1].Version {
				t.Fatalf("object #%d: history not strictly increasing: %v", e.Object, e.hist)
			}
		}
	}
}

// TestDirectoryProperty drives seeded random transition sequences the way
// a host does (lost owners are promoted away) and checks the invariants
// after every step.
func TestDirectoryProperty(t *testing.T) {
	const machines = 6
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := core.New(core.Hooks{})
		writer := eng.Root()
		d := NewDirectory()
		lost := map[int]bool{}
		lastVer := map[access.ObjectID]uint64{}
		alive := func() int {
			for {
				if m := rng.Intn(machines); !lost[m] {
					return m
				}
			}
		}
		var next access.ObjectID = 1
		for step := 0; step < 400; step++ {
			op := rng.Intn(10)
			if next == 1 {
				op = 0
			}
			switch {
			case op == 0:
				d.Alloc(next, alive(), fmt.Sprintf("o%d", next))
				next++
			case op < 5:
				e, m := d.Entry(access.ObjectID(1+rng.Intn(int(next-1)))), alive()
				d.GrantRead(e, m)
			case op < 9:
				e, m := d.Entry(access.ObjectID(1+rng.Intn(int(next-1)))), alive()
				want := []int{}
				for _, c := range e.Holders() {
					if c != m {
						want = append(want, c)
					}
				}
				ver := e.Version
				got := d.GrantWrite(e, m, writer)
				if !reflect.DeepEqual(append([]int{}, got...), want) {
					t.Fatalf("seed %d step %d: GrantWrite invalidates %v, want %v", seed, step, got, want)
				}
				for _, c := range got {
					if gen, ok := e.ShadowGen(c); !ok || gen != ver {
						t.Fatalf("seed %d step %d: invalidated holder %d frozen at (%d, %v), want generation %d", seed, step, c, gen, ok, ver)
					}
					if rng.Intn(3) == 0 { // a host that does not keep the stale bytes
						d.DropShadow(e, c)
					}
				}
				if e.Owner != m || !reflect.DeepEqual(e.Holders(), []int{m}) || e.Version != ver+1 {
					t.Fatalf("seed %d step %d: after write grant to %d: owner %d holders %v version %d (was %d)",
						seed, step, m, e.Owner, e.Holders(), e.Version, ver)
				}
			default:
				if len(lost) >= machines-2 {
					continue
				}
				m := alive()
				var want []access.ObjectID
				for _, e := range d.Entries() {
					if e.Owner == m {
						want = append(want, e.Object)
					}
				}
				owned := d.LoseMachine(m)
				if !reflect.DeepEqual(owned, want) {
					t.Fatalf("seed %d step %d: LoseMachine(%d) lists %v, want %v", seed, step, m, owned, want)
				}
				lost[m] = true
				for _, obj := range owned {
					e := d.Entry(obj)
					to := alive()
					if hs := e.Holders(); len(hs) > 0 {
						to = hs[0]
					}
					d.Promote(e, to)
				}
				if again := d.LoseMachine(m); len(again) != 0 {
					t.Fatalf("seed %d step %d: second LoseMachine(%d) still lists %v", seed, step, m, again)
				}
			}
			checkDirectory(t, d, lost, lastVer)
		}
	}
}

// TestGrantWriteDoesNotAllocate pins the per-write-grant hot path: once an
// object's holder set and history have their storage, migrating it between
// two machines and trimming behind it allocates nothing.
func TestGrantWriteDoesNotAllocate(t *testing.T) {
	eng := core.New(core.Hooks{})
	d := NewDirectory()
	e := d.Alloc(1, 0, "o")
	m := 0
	grant := func() {
		m = 1 - m
		d.GrantWrite(e, m, eng.Root())
		d.GrantRead(e, 2)
		d.TrimHistory(e, e.Version)
	}
	grant()
	grant()
	if n := testing.AllocsPerRun(100, grant); n != 0 {
		t.Fatalf("write grant allocates %v times per call, want 0", n)
	}
}

// TestCommittedWriterAndRollback: recovery finds the newest completed
// writer above the floor, and a rollback forgets exactly the uncommitted
// generations above it.
func TestCommittedWriterAndRollback(t *testing.T) {
	eng := core.New(core.Hooks{})
	done1, done2, running := newTask(t, eng, true), newTask(t, eng, true), newTask(t, eng, false)
	d := NewDirectory()
	e := d.Alloc(7, 1, "o")
	if w, ver := d.LastCommittedWriter(e, 0); w != nil || ver != 0 {
		t.Fatalf("fresh object: committed writer (%v, %d), want (nil, 0): generation 0 is the Alloc image", w, ver)
	}
	d.GrantWrite(e, 2, done1)   // generation 1
	d.GrantWrite(e, 3, done2)   // generation 2
	d.GrantWrite(e, 1, running) // generation 3, uncommitted
	if w, ver := d.LastCommittedWriter(e, 0); w != done2 || ver != 2 {
		t.Fatalf("committed writer = (task %v, %d), want (task %d, 2)", w, ver, done2.ID)
	}
	if w, ver := d.LastCommittedWriter(e, 2); w != nil || ver != 2 {
		t.Fatalf("above floor 2: (%v, %d), want (nil, 2): only an uncommitted generation is newer", w, ver)
	}
	if d.Writer(e, 2) != done2 || d.Writer(e, 3) != running || d.Writer(e, 4) != nil || d.Writer(e, 0) != nil {
		t.Fatalf("Writer does not read the history back: %v", e.hist)
	}
	d.Rollback(e, 2)
	if d.Writer(e, 3) != nil {
		t.Fatal("a rolled-back generation still names its writer")
	}
	if e.Version != 2 || len(e.hist) != 2 || e.hist[1].Task != done2 {
		t.Fatalf("after rollback: version %d history %v, want version 2 with generations 1..2", e.Version, e.hist)
	}
	d.TrimHistory(e, 1)
	if d.Writer(e, 1) != nil || d.Writer(e, 2) != done2 {
		t.Fatal("a trimmed generation still names its writer, or a kept one does not")
	}
	if len(e.hist) != 1 || e.hist[0].Version != 2 {
		t.Fatalf("after trim at 1: history %v, want generation 2 only", e.hist)
	}
	d.GrantWrite(e, 2, running)
	if got := e.hist[len(e.hist)-1]; got.Version != 3 || got.Task != running {
		t.Fatalf("re-executed writer recorded as %v, want generation 3", got)
	}
}

// TestPackUnpack is the transfer codec's decision table: every case must
// round-trip bit-identically, in every pairing of byte orders.
func TestPackUnpack(t *testing.T) {
	big := make([]float64, 256)
	for i := range big {
		big[i] = float64(i) * 1.5
	}
	touched := format.Clone(big).([]float64)
	touched[17], touched[200] = -1, -2
	rewritten := make([]float64, 256)
	for i := range rewritten {
		rewritten[i] = -float64(i) - 1
	}
	cases := []struct {
		name      string
		base, val any
		wantPatch bool
	}{
		{"no base: image", nil, big, false},
		{"few words changed: patch taken", big, touched, true},
		{"every word changed: patch refused, image", big, rewritten, false},
		{"reallocated with another length: image", big, []float64{1, 2, 3}, false},
		{"reallocated with another kind: image", big, []int32{1, 2, 3}, false},
		{"bytes have no byte order", []byte(strings.Repeat("a", 64)), []byte(strings.Repeat("a", 63) + "b"), true},
	}
	orders := []format.ByteOrder{format.LittleEndian, format.BigEndian}
	for _, c := range cases {
		for _, from := range orders {
			for _, to := range orders {
				name := fmt.Sprintf("%s/%v->%v", c.name, from, to)
				payload, isPatch, words, err := AppendPack(nil, c.base, c.val, from, to)
				if err != nil {
					t.Fatalf("%s: AppendPack: %v", name, err)
				}
				// Encoding in the receiver's order is converting the
				// sender's encoding: the same bytes, the same swap count.
				raw, _, rawPatch := format.Diff(c.base, c.val, from)
				if !rawPatch {
					raw, _ = format.Encode(c.val, from)
				}
				if conv, cwords, err := reorder(raw, rawPatch, from, to); err != nil || !bytes.Equal(conv, payload) || cwords != words {
					t.Fatalf("%s: payload differs from the sender's encoding converted (%d vs %d words, %v)", name, words, cwords, err)
				}
				if isPatch != c.wantPatch {
					t.Fatalf("%s: isPatch = %v, want %v", name, isPatch, c.wantPatch)
				}
				if isPatch && len(payload) >= format.WireSize(c.val) {
					t.Fatalf("%s: patch of %d bytes is no smaller than the %d-byte image", name, len(payload), format.WireSize(c.val))
				}
				_, isBytes := c.val.([]byte)
				if swapped := words > 0; swapped != (from != to && !isBytes) {
					t.Fatalf("%s: %d words swapped", name, words)
				}
				if isPatch && !isBytes && from != to && words != 2 {
					t.Fatalf("%s: patch swapped %d words, want the 2 dirty ones", name, words)
				}
				// Receiver in the order Pack targeted: nothing left to swap.
				// Unpack writes into the base it is given, so it gets a
				// copy of its own; a base of the payload's shape comes back
				// holding the value.
				base := own(c.base)
				got, rwords, err := Unpack(base, payload, isPatch, to, to)
				if err != nil || rwords != 0 {
					t.Fatalf("%s: Unpack = (%d words, %v)", name, rwords, err)
				}
				if !reflect.DeepEqual(got, c.val) {
					t.Fatalf("%s: round trip differs", name)
				}
				inPlace := format.KindOf(base) == format.KindOf(c.val) && format.Len(base) == format.Len(c.val)
				if format.Same(got, base) != inPlace {
					t.Fatalf("%s: Unpack wrote into its base = %v, want %v", name, !inPlace, inPlace)
				}
				// Sender that could not convert (a pull reply): the receiver does.
				raw, _, _, err = AppendPack(nil, c.base, c.val, from, from)
				if err != nil {
					t.Fatalf("%s: AppendPack in own order: %v", name, err)
				}
				got, rwords, err = Unpack(own(c.base), raw, isPatch, from, to)
				if err != nil || rwords != words {
					t.Fatalf("%s: receiver-side conversion = (%d words, %v), want %d words", name, rwords, err, words)
				}
				if !reflect.DeepEqual(got, c.val) {
					t.Fatalf("%s: receiver-converted round trip differs", name)
				}
				want, _ := format.Encode(c.val, to)
				if back, _ := format.Encode(got, to); !bytes.Equal(back, want) {
					t.Fatalf("%s: round trip not bit-identical", name)
				}
			}
		}
	}
	if _, _, _, err := AppendPack(nil, nil, struct{}{}, format.LittleEndian, format.LittleEndian); err == nil {
		t.Fatal("AppendPack of an unencodable value succeeded")
	}
	// Into a buffer with room for the full image, packing allocates nothing.
	buf := make([]byte, 0, 64+format.SizeOf(big))
	var val any = touched
	for _, base := range []any{nil, big} {
		if a := testing.AllocsPerRun(100, func() {
			AppendPack(buf[:17], base, val, format.LittleEndian, format.LittleEndian)
		}); a != 0 {
			t.Errorf("AppendPack (base %T) into a buffer with room: %.1f allocs, want 0", base, a)
		}
	}
	if _, _, err := Unpack(big, []byte{1, 2}, true, format.LittleEndian, format.LittleEndian); err == nil {
		t.Fatal("Unpack of a truncated patch succeeded")
	}
}

// own returns a copy of base for Unpack to write into (nil for no base).
func own(base any) any {
	if base == nil {
		return nil
	}
	return format.Clone(base)
}
