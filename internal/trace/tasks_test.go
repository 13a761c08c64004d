package trace

import (
	"testing"
	"time"
)

func events(evs []Event) func(yield func(Event)) {
	return func(yield func(Event)) {
		for _, ev := range evs {
			yield(ev)
		}
	}
}

// TestTasksFetchStart: the fetch starts at the assignment when the task
// was prefetched, and at the processor claim when it fetched holding its
// processor or was never assigned (an inline child).
func TestTasksFetchStart(t *testing.T) {
	const ms = time.Millisecond
	tasks := Tasks(events([]Event{
		// 2: prefetched — assigned 1, fetched 3, claimed 4.
		{At: 0, Kind: TaskCreated, Task: 2, Label: "pre"},
		{At: 1 * ms, Kind: TaskAssigned, Task: 2, Dst: 1},
		{At: 3 * ms, Kind: TaskFetched, Task: 2, Dst: 1},
		{At: 4 * ms, Kind: TaskScheduled, Task: 2, Dst: 1},
		{At: 4 * ms, Kind: TaskStarted, Task: 2, Dst: 1},
		{At: 9 * ms, Kind: TaskCompleted, Task: 2},
		{At: 10 * ms, Kind: TaskCommitted, Task: 2},
		// 3: fetched holding the processor — assigned 1, claimed 2, fetched 5.
		{At: 0, Kind: TaskCreated, Task: 3},
		{At: 1 * ms, Kind: TaskAssigned, Task: 3, Dst: 1},
		{At: 2 * ms, Kind: TaskScheduled, Task: 3, Dst: 1},
		{At: 5 * ms, Kind: TaskFetched, Task: 3, Dst: 1},
		{At: 5 * ms, Kind: TaskStarted, Task: 3, Dst: 1},
		{At: 8 * ms, Kind: TaskCompleted, Task: 3},
		// 4: an inline child, never assigned — claimed 6, zero-time fetch.
		{At: 0, Kind: TaskCreated, Task: 4},
		{At: 6 * ms, Kind: TaskScheduled, Task: 4, Dst: 0},
		{At: 6 * ms, Kind: TaskFetched, Task: 4, Dst: 0},
		{At: 6 * ms, Kind: TaskStarted, Task: 4, Dst: 0},
		{At: 7 * ms, Kind: TaskCompleted, Task: 4},
	}))
	if len(tasks) != 3 {
		t.Fatalf("%d tasks, want 3", len(tasks))
	}
	for i, want := range []struct {
		fetchStart, execStart time.Duration
		machine               int
	}{{1 * ms, 4 * ms, 1}, {2 * ms, 5 * ms, 1}, {6 * ms, 6 * ms, 0}} {
		got := tasks[i]
		if !got.HasFetch || got.FetchStart != want.fetchStart || got.ExecStart != want.execStart || got.Machine != want.machine {
			t.Errorf("task %d: fetch from %v, exec from %v on m%d; want %v, %v, m%d",
				got.ID, got.FetchStart, got.ExecStart, got.Machine, want.fetchStart, want.execStart, want.machine)
		}
	}
	if start, end := tasks[0].Span(); start != 0 || end != 10*ms || tasks[0].Label != "pre" {
		t.Errorf("task 2 spans [%v, %v] as %q, want [0, 10ms] as \"pre\"", start, end, tasks[0].Label)
	}
}

// TestTasksLastEventWins: a re-executed task's lifecycle is its last
// attempt's, and a task whose claim fell out of a ring is skipped.
func TestTasksLastEventWins(t *testing.T) {
	const ms = time.Millisecond
	tasks := Tasks(events([]Event{
		{At: 1 * ms, Kind: TaskScheduled, Task: 2, Dst: 1},
		{At: 1 * ms, Kind: TaskStarted, Task: 2, Dst: 1},
		{At: 3 * ms, Kind: TaskScheduled, Task: 2, Dst: 2},
		{At: 3 * ms, Kind: TaskStarted, Task: 2, Dst: 2},
		{At: 5 * ms, Kind: TaskCompleted, Task: 2},
		{At: 4 * ms, Kind: TaskCompleted, Task: 3}, // its claim was dropped
		{At: 2 * ms, Kind: TaskStarted, Task: 4},   // never completed
	}))
	if len(tasks) != 1 {
		t.Fatalf("%d tasks, want only task 2", len(tasks))
	}
	if got := tasks[0]; got.ID != 2 || got.Claim != 3*ms || got.Machine != 2 || got.ExecEnd != 5*ms {
		t.Fatalf("task 2 = claim %v on m%d, exec end %v; want 3ms on m2, 5ms", got.Claim, got.Machine, got.ExecEnd)
	}
}
