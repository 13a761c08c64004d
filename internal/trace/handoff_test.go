package trace

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestEachMatchesSnapshot: Each yields exactly the window Snapshot copies,
// in the same order, on a ring that has wrapped and on an unbounded log.
func TestEachMatchesSnapshot(t *testing.T) {
	for _, l := range []*Log{New(), NewRing(5)} {
		for i := 1; i <= 12; i++ {
			l.Add(Event{Kind: TaskStarted, Task: uint64(i), Dst: i % 3, Label: fmt.Sprintf("k%d", i%4)})
		}
		want, _ := l.Snapshot()
		var got []Event
		l.Each(func(ev Event) { got = append(got, ev) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Each:\n got %v\nwant %v", got, want)
		}
	}
	var nilLog *Log
	nilLog.Each(func(Event) { t.Fatal("a nil log yielded an event") })
}

// TestHandoff: the new log owns the storage and starts empty; the old
// one keeps none of its events, reports them as dropped, stays usable,
// and never sees what the new log records.
func TestHandoff(t *testing.T) {
	old := NewRing(4)
	for i := 1; i <= 6; i++ {
		old.Add(Event{Kind: TaskCreated, Task: uint64(i), Label: fmt.Sprintf("a%d", i)})
	}
	n := old.Handoff()
	if n == old {
		t.Fatal("Handoff returned the log it was called on")
	}
	if evs, dropped := n.Snapshot(); len(evs) != 0 || dropped != 0 {
		t.Fatalf("new log holds %d events, %d dropped; want an empty log", len(evs), dropped)
	}
	if evs, dropped := old.Snapshot(); len(evs) != 0 || dropped != 6 {
		t.Fatalf("old log holds %d events, %d dropped; want 0 and 6", len(evs), dropped)
	}

	for i := 1; i <= 5; i++ {
		n.Add(Event{Kind: TaskCreated, Task: uint64(100 + i), Label: fmt.Sprintf("b%d", i)})
	}
	old.Add(Event{Kind: TaskCompleted, Task: 6, Label: "late"})
	evs, dropped := n.Snapshot()
	if dropped != 1 || len(evs) != 4 || evs[0].Task != 102 || evs[3].Label != "b5" {
		t.Fatalf("new log: %v, %d dropped; want b2..b5 with one dropped (capacity kept)", evs, dropped)
	}
	if evs, _ := old.Snapshot(); len(evs) != 1 || evs[0].Label != "late" {
		t.Fatalf("old log after a late Add: %v, want the one late event", evs)
	}
	if want := []string{"", "b1", "b2", "b3", "b4", "b5"}; !reflect.DeepEqual(n.labels, want) {
		t.Fatalf("new log's label table %q, want %q: none of the old log's labels", n.labels, want)
	}
}

// TestHandoffConcurrent: adds racing a hand-off are each either handed
// off (counted as dropped) or kept by the old log, never both, never lost,
// and never reach the new log.
func TestHandoffConcurrent(t *testing.T) {
	const writers, each = 4, 500
	old := New()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				old.Add(Event{Kind: TaskStarted, Task: uint64(w*each + i + 1), Label: fmt.Sprintf("w%d", w)})
			}
		}(w)
	}
	n := old.Handoff()
	wg.Wait()
	if n.Len() != 0 {
		t.Fatalf("the new log holds %d events written to the old one", n.Len())
	}
	got := map[uint64]int{}
	old.Each(func(ev Event) { got[ev.Task]++ })
	_, dropped := old.Snapshot()
	if len(got)+int(dropped) != writers*each {
		t.Fatalf("%d events retained + %d handed off, want %d", len(got), dropped, writers*each)
	}
	for id, c := range got {
		if c != 1 {
			t.Fatalf("task %d seen %d times", id, c)
		}
	}
}
