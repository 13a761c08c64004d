package obs_test

import (
	"reflect"
	"testing"

	"repro/internal/apps/cholesky"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/jade"
)

// cholStream runs a traced Cholesky factorization on r and returns its
// full event stream.
func cholStream(t *testing.T, r *jade.Runtime, k int) []trace.Event {
	t.Helper()
	m := cholesky.Symbolic(cholesky.GridLaplacian(k))
	if err := r.Run(func(tk *jade.Task) { cholesky.ToJade(tk, m, 0).Factor(tk) }); err != nil {
		t.Fatal(err)
	}
	return r.TraceLog().Events()
}

func cholStreams(t *testing.T) map[string][]trace.Event {
	live, err := jade.NewLive(jade.LiveConfig{Workers: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]trace.Event{
		"smp":  cholStream(t, jade.NewSMP(jade.SMPConfig{Procs: 2, Trace: true}), 6),
		"live": cholStream(t, live, 4),
	}
}

// TestFoldMatchesHistogramRollup: the fold's plain snapshot adds give
// exactly what recording into concurrent Histograms and snapshotting them
// gave, on a traced smp Cholesky stream and on a live one.
func TestFoldMatchesHistogramRollup(t *testing.T) {
	for name, events := range cholStreams(t) {
		got, want := obs.LatencyByLabel(events), obs.LatencyByLabelOracle(events)
		if len(want) < 10 {
			t.Fatalf("%s: only %d labels; the stream is too small to compare", name, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fold differs from the Histogram rollup:\n got %v\nwant %v", name, got, want)
		}
	}
}

// TestFoldTwoStreamsIsMerge: folding two sessions' streams into one
// accumulator equals merging their separate rollups label by label.
func TestFoldTwoStreamsIsMerge(t *testing.T) {
	s := cholStreams(t)
	a, b := s["smp"], s["live"]
	acc := obs.Latencies{}
	for _, events := range [][]trace.Event{a, b} {
		acc.Fold(func(yield func(trace.Event)) {
			for _, ev := range events {
				yield(ev)
			}
		})
	}
	want := map[string]obs.LabelLatency{}
	for _, events := range [][]trace.Event{a, b} {
		for _, ll := range obs.LatencyByLabelOracle(events) {
			cur := want[ll.Label]
			cur.Label, cur.Total, cur.Exec = ll.Label, cur.Total.Merge(ll.Total), cur.Exec.Merge(ll.Exec)
			want[ll.Label] = cur
		}
	}
	got := acc.Sorted()
	if len(got) != len(want) {
		t.Fatalf("%d labels folded, %d merged", len(got), len(want))
	}
	for _, ll := range got {
		if !reflect.DeepEqual(ll, want[ll.Label]) {
			t.Fatalf("label %q: folded %v, merged %v", ll.Label, ll, want[ll.Label])
		}
	}
}

// TestFoldRingAllocs: folding a full 4,096-event ring allocates for the
// fold's own tables, a few growing slices and a map, and nothing per
// event or per task.
func TestFoldRingAllocs(t *testing.T) {
	ring := trace.NewRing(4096)
	for _, ev := range cholStream(t, jade.NewSMP(jade.SMPConfig{Procs: 2, Trace: true}), 10) {
		ring.Add(ev)
	}
	if _, dropped := ring.Snapshot(); ring.Len() != 4096 || dropped == 0 {
		t.Fatalf("ring holds %d events, %d dropped: want a full, wrapped ring", ring.Len(), dropped)
	}
	acc := obs.Latencies{}
	acc.Fold(ring.Each) // the labels enter the accumulator once
	allocs := testing.AllocsPerRun(10, func() { acc.Fold(ring.Each) })
	t.Logf("%.0f allocations per fold", allocs)
	if allocs > 64 {
		t.Fatalf("folding a 4,096-event ring made %.0f allocations, want <= 64", allocs)
	}
}
