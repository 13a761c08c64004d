package trace

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/access"
	"repro/internal/core"
)

// TestRecordPointerFree pins what the log stores: a record with no
// pointer-bearing field, so a ring of them is memory the GC never scans,
// in at most 56 bytes. A string, slice, map or pointer added to record
// fails here.
func TestRecordPointerFree(t *testing.T) {
	rt := reflect.TypeOf(record{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("record.%s is a %v: the ring would be scanned by the GC", f.Name, f.Type)
		}
	}
	if n := unsafe.Sizeof(record{}); n > 56 {
		t.Errorf("record is %d bytes, want <= 56", n)
	}
}

// TestRingWrapOrder: a full ring overwrites its oldest events, returns
// the rest oldest first and counts what it overwrote.
func TestRingWrapOrder(t *testing.T) {
	l := NewRing(4)
	for i := 1; i <= 10; i++ {
		l.Add(Event{Kind: TaskCreated, Task: uint64(i)})
	}
	evs, dropped := l.Snapshot()
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	if len(evs) != 4 || l.Len() != 4 {
		t.Fatalf("retained %d / %d events, want 4", len(evs), l.Len())
	}
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Task != want {
			t.Fatalf("event %d is task %d, want %d (%v)", i, ev.Task, want, evs)
		}
	}
}

// TestRecordRoundTrip: every field comes back from Events as it went into
// Add, at the edges of the narrowed widths.
func TestRecordRoundTrip(t *testing.T) {
	in := []Event{
		{At: time.Hour, Kind: TaskCommitted, Task: math.MaxUint64, Other: math.MaxUint64 - 1,
			Object: 1 << 40, Src: -1, Dst: -1, Label: "external(3,7)"},
		{At: -time.Nanosecond, Kind: ObjectPatched, Src: math.MaxInt32, Dst: math.MinInt32,
			Bytes: math.MaxUint32, Saved: math.MaxUint32 - 1, Label: "col0"},
		{Kind: MessageSent, Src: 0, Dst: 3, Bytes: 4096, Saved: 0, Label: ""},
		{Kind: Depend, Task: 1, Other: 2, Object: 7},
		{Kind: TaskCreated, Task: 9, Label: "external(3,7)"},
	}
	for _, l := range []*Log{New(), NewRing(len(in))} {
		for _, ev := range in {
			l.Add(ev)
		}
		if got := l.Events(); !reflect.DeepEqual(got, in) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, in)
		}
	}
}

// TestNarrowSaturates: values beyond a narrowed field's range clamp to
// its edge rather than wrap.
func TestNarrowSaturates(t *testing.T) {
	l := New()
	l.Add(Event{Src: math.MaxInt32 + 1, Dst: math.MinInt32 - 1, Bytes: math.MaxUint32 + 1, Saved: -5})
	ev := l.Events()[0]
	if ev.Src != math.MaxInt32 || ev.Dst != math.MinInt32 || ev.Bytes != math.MaxUint32 || ev.Saved != 0 {
		t.Fatalf("saturated event = %+v", ev)
	}
}

// TestAddDependsThroughRing: a Create's Depend batch lands in a ring as
// one event per edge, in order, and wraps like any other event.
func TestAddDependsThroughRing(t *testing.T) {
	l := NewRing(3)
	later := &core.Task{ID: 10}
	deps := []core.Dep{
		{Earlier: &core.Task{ID: 1}, Object: access.ObjectID(5)},
		{Earlier: &core.Task{ID: 2}, Object: access.ObjectID(6)},
		{Earlier: &core.Task{ID: 3}, Object: access.ObjectID(7)},
		{Earlier: &core.Task{ID: 4}, Object: access.ObjectID(8)},
	}
	l.AddDepends(time.Millisecond, later, deps)
	evs, dropped := l.Snapshot()
	if dropped != 1 || len(evs) != 3 {
		t.Fatalf("dropped %d, retained %d; want 1, 3", dropped, len(evs))
	}
	for i, ev := range evs {
		d := deps[i+1]
		want := Event{At: time.Millisecond, Kind: Depend, Task: uint64(d.Earlier.ID), Other: 10, Object: uint64(d.Object)}
		if ev != want {
			t.Fatalf("edge %d = %+v, want %+v", i, ev, want)
		}
	}
}

// TestRingMatchesUnbounded: a ring that never wraps returns exactly what
// the unbounded log does for the same stream.
func TestRingMatchesUnbounded(t *testing.T) {
	full, ring := New(), NewRing(1000)
	for i := 0; i < 500; i++ {
		ev := Event{At: time.Duration(i), Kind: Kind(i % 22), Task: uint64(i), Src: i%5 - 1, Dst: i % 3,
			Bytes: i * 8, Label: fmt.Sprintf("t%d", i%37)}
		full.Add(ev)
		ring.Add(ev)
	}
	evs, dropped := ring.Snapshot()
	if !reflect.DeepEqual(full.Events(), evs) {
		t.Fatal("ring and unbounded log disagree on the same stream")
	}
	if dropped != 0 {
		t.Fatalf("ring dropped %d", dropped)
	}
}

// TestLabelTableBounded: the label table holds each distinct label once,
// and a ring's table does not grow with labels it no longer retains.
func TestLabelTableBounded(t *testing.T) {
	names := []string{"internal(0)", "external(0,3)", "main"}
	l := NewRing(64)
	for i := 0; i < 1_000_000; i++ {
		l.Add(Event{Kind: TaskStarted, Task: uint64(i), Label: names[i%3]})
	}
	if n := len(l.labels) - 1; n != 3 {
		t.Fatalf("%d label entries after 1M adds over 3 labels, want 3", n)
	}

	ring := NewRing(16)
	for i := 0; i < 10_000; i++ {
		ring.Add(Event{Kind: TaskCreated, Task: uint64(i), Label: fmt.Sprintf("task %d", i)})
	}
	if n := len(ring.labels) - 1; n > 2*16+1 {
		t.Fatalf("%d label entries in a 16-event ring after 10k distinct labels", n)
	}
	for i, ev := range ring.Events() {
		if want := fmt.Sprintf("task %d", 10_000-16+i); ev.Label != want {
			t.Fatalf("event %d label %q, want %q", i, ev.Label, want)
		}
	}
}

// TestSnapshotConsistent: while one goroutine adds sequence-numbered
// events to a small ring, every snapshot another takes pairs its window
// with its own drop count: the first retained event is number dropped+1.
func TestSnapshotConsistent(t *testing.T) {
	l := NewRing(8)
	const n = 20_000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			l.Add(Event{Kind: MessageSent, Task: uint64(i)})
		}
	}()
	for done := false; !done; {
		evs, dropped := l.Snapshot()
		if len(evs) > 0 && evs[0].Task != dropped+1 {
			t.Fatalf("snapshot starts at event %d with %d dropped", evs[0].Task, dropped)
		}
		done = len(evs) > 0 && evs[len(evs)-1].Task == n
	}
	wg.Wait()
}

// BenchmarkAdd is the always-on ring in steady state (full, every Add
// overwrites) under two label streams: one label throughout, and per-task
// labels with each task's three labeled events spread over a window of
// 80 other tasks, as a run with many tasks in flight interleaves them.
func BenchmarkAdd(b *testing.B) {
	labels := make([]string, 1741)
	for i := range labels {
		labels[i] = fmt.Sprintf("external(%d,%d)", i/40, i%40)
	}
	for _, bc := range []struct {
		name  string
		label func(i int) string
	}{
		{"one-label", func(int) string { return labels[0] }},
		{"per-task", func(i int) string { return labels[(i/3+40*(i%3))%len(labels)] }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			l := NewRing(4096)
			for i := 0; i < 4096; i++ {
				l.Add(Event{Kind: TaskCreated, Label: bc.label(i)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Add(Event{Kind: TaskCreated, Task: 42, Object: 7, Src: -1, Dst: -1, Label: bc.label(i)})
			}
		})
	}
}
