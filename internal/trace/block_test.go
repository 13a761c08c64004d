package trace

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/access"
	"repro/internal/core"
)

// ringModel is the contiguous ring the block ring must behave like: a
// slice holding the newest cap events, counting the ones it let go.
type ringModel struct {
	cap     int
	events  []Event
	dropped uint64
}

func (m *ringModel) add(ev Event) {
	m.events = append(m.events, ev)
	if len(m.events) > m.cap {
		m.events = m.events[1:]
		m.dropped++
	}
}

// TestBlockRingMatchesModel: for capacities below, at and around a block
// and well past it, a stream of labeled events and Depend batches —
// including batches that straddle a block edge — driven through at least
// two wraps leaves the ring holding exactly the model's window, drop
// count and length, with labels intact across table compactions.
func TestBlockRingMatchesModel(t *testing.T) {
	const B = blockLen
	for _, capacity := range []int{1, 3, B - 1, B, B + 1, 2*B + 5, 1 << 16} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			l, m := NewRing(capacity), &ringModel{cap: capacity}
			total := 2*capacity + capacity/2 + 3*B/2 + 7
			check := func(i int) {
				evs, dropped := l.Snapshot()
				if dropped != m.dropped || l.Len() != len(m.events) || len(evs) != len(m.events) {
					t.Fatalf("after %d events: %d retained (Len %d), %d dropped; model %d, %d",
						i, len(evs), l.Len(), dropped, len(m.events), m.dropped)
				}
				for k := range evs {
					if evs[k] != m.events[k] {
						t.Fatalf("after %d events: event %d = %+v, model %+v", i, k, evs[k], m.events[k])
					}
				}
				k := 0
				l.Each(func(ev Event) {
					if ev != evs[k] {
						t.Fatalf("after %d events: Each yields %+v at %d, Snapshot %+v", i, ev, k, evs[k])
					}
					k++
				})
				if n := len(l.labels) - 1; n > 2*capacity+1 {
					t.Fatalf("after %d events: %d labels in a %d-event ring", i, n, capacity)
				}
			}
			// A checkpoint at every wrap, around block edges (every one for
			// small rings, every stride-th for the largest) and now and then
			// in between.
			stride := max(1, capacity/(2*B))
			later := &core.Task{}
			for i := 0; i < total; {
				edge := (i%B == 0 || i%B == B-1) && (i/B)%stride == 0
				if i%capacity == 0 || edge || rng.Intn(16*B) == 0 {
					check(i)
				}
				if rng.Intn(8) == 0 {
					at := time.Duration(i)
					later.ID = core.TaskID(i)
					deps := make([]core.Dep, 1+rng.Intn(9))
					for k := range deps {
						deps[k] = core.Dep{Earlier: &core.Task{ID: core.TaskID(i - k)}, Object: access.ObjectID(k)}
						m.add(Event{At: at, Kind: Depend, Task: uint64(i - k), Other: uint64(i), Object: uint64(k)})
					}
					l.AddDepends(at, later, deps)
					i += len(deps)
					continue
				}
				ev := Event{At: time.Duration(i), Kind: Kind(i % 22), Task: uint64(i), Src: i%5 - 1, Dst: i % 3}
				switch rng.Intn(3) {
				case 0: // a label of its own: compaction must keep up
					ev.Label = fmt.Sprintf("task %d", i)
				case 1:
					ev.Label = fmt.Sprintf("external(%d)", i%37)
				}
				l.Add(ev)
				m.add(ev)
				i++
			}
			check(total)
			if want := (capacity + B - 1) / B; len(l.blocks) != want {
				t.Fatalf("%d blocks for capacity %d, want %d", len(l.blocks), capacity, want)
			}
		})
	}
}

// TestRingCostsWhatItHolds: a ring allocates storage for the events it has
// been given, not for its capacity, and a ring handed off passes its
// blocks on, so the new log refills them without allocating any.
func TestRingCostsWhatItHolds(t *testing.T) {
	const block = blockLen * uint64(unsafe.Sizeof(record{}))
	labels := []string{"main", "internal(3)", "external(3,4)"}
	var before, after runtime.MemStats

	runtime.ReadMemStats(&before)
	l := NewRing(1 << 16)
	for i := 0; i < 1000; i++ {
		l.Add(Event{Kind: TaskStarted, Task: uint64(i), Label: labels[i%3]})
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > block+16<<10 {
		t.Errorf("a 2^16 ring holding 1,000 events allocated %d bytes, want ≤ one %d-byte block plus the label table", got, block)
	}

	for i := 0; i < 1<<16; i++ {
		l.Add(Event{Kind: TaskStarted, Task: uint64(i), Label: labels[i%3]})
	}
	n := l.Handoff()
	runtime.ReadMemStats(&before)
	for i := 0; i < 1<<16; i++ {
		n.Add(Event{Kind: TaskCompleted, Task: uint64(i), Label: labels[i%3]})
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("refilling a handed-off 2^16 ring allocated %d bytes, want no block (≤ 16 KiB)", got)
	}
	if evs, dropped := n.Snapshot(); len(evs) != 1<<16 || dropped != 0 || evs[0].Task != 0 {
		t.Fatalf("handed-off ring holds %d events, %d dropped", len(evs), dropped)
	}
}
