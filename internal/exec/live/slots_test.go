package live_test

// Regression test for the per-worker slot accounting surfaced through
// Stats().Workers (and jade's Report.Workers): after a run with a mid-stream
// graceful drain, the counts must be exact — advertised capacity
// preserved, every held slot returned, the drained worker visible in
// membership state "left" rather than silently dropped from the view.

import (
	"fmt"
	"testing"

	"repro/internal/access"
	"repro/internal/exec/live/livetest"
	"repro/internal/rt"
)

func TestSlotStatsExactAfterDrain(t *testing.T) {
	const nTasks = 12
	c, err := livetest.New(livetest.Options{
		Workers: 2,
		Slots:   2,
		Script:  []livetest.Step{{AfterDone: 3, Drain: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var id access.ObjectID
	err = c.Run(func(tc rt.TC) {
		if id, err = tc.Alloc([]int64{0}, "ctr"); err != nil {
			panic(err)
		}
		for i := 0; i < nTasks; i++ {
			i := i
			if err := tc.Create(
				[]access.Decl{{Object: id, Mode: access.ReadWrite}},
				rt.TaskOpts{Label: fmt.Sprintf("t%d", i)},
				func(ctc rt.TC) {
					v, err := ctc.Access(id, access.ReadWrite)
					if err != nil {
						panic(err)
					}
					v.([]int64)[0]++
				}); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if got := c.X.ObjectValue(id).([]int64)[0]; got != nTasks {
		t.Fatalf("counter = %d, want %d", got, nTasks)
	}

	stats := c.X.Stats().Workers
	if len(stats) != 2 {
		t.Fatalf("Stats().Workers has %d workers, want 2", len(stats))
	}
	for _, w := range stats {
		if w.Machine != 1 && w.Machine != 2 {
			t.Fatalf("unexpected machine index %d", w.Machine)
		}
		wantState := "active"
		if w.Machine == 2 {
			wantState = "left"
		}
		if w.State != wantState {
			t.Errorf("machine %d state = %q, want %q", w.Machine, w.State, wantState)
		}
		// Exact counts: capacity as advertised in the hello, every slot
		// returned after the run, Free = Slots with nothing outstanding.
		if w.Slots != 2 {
			t.Errorf("machine %d Slots = %d, want 2 (advertised)", w.Machine, w.Slots)
		}
		if w.Held != 0 {
			t.Errorf("machine %d Held = %d, want 0 after the run", w.Machine, w.Held)
		}
		if w.Free != 2 {
			t.Errorf("machine %d Free = %d, want 2", w.Machine, w.Free)
		}
	}
}
