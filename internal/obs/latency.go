package obs

import (
	"slices"
	"strings"

	"repro/internal/trace"
)

// Latencies accumulates per-task-kind latency by label, across the event
// streams folded and the accumulators merged into it.
type Latencies map[string]*LabelLatency

// Fold adds the tasks in the events each yields: Total is create→commit
// (create→complete when the commit event is missing), Exec the
// processor-held span. The main-program task is excluded. Folding
// several streams merges them.
func (a Latencies) Fold(each func(yield func(trace.Event))) {
	for _, t := range trace.Tasks(each) {
		if t.ID == trace.RootTask {
			continue
		}
		ll := a.get(t.Label)
		start, end := t.Span()
		ll.Total.add(end - start)
		ll.Exec.add(t.ExecEnd - t.ExecStart)
	}
}

// Merge adds b's distributions to a's.
func (a Latencies) Merge(b Latencies) {
	for _, ll := range b {
		cur := a.get(ll.Label)
		cur.Total, cur.Exec = cur.Total.Merge(ll.Total), cur.Exec.Merge(ll.Exec)
	}
}

func (a Latencies) get(label string) *LabelLatency {
	if label == "" {
		label = "(unlabeled)"
	}
	ll := a[label]
	if ll == nil {
		ll = &LabelLatency{Label: label}
		a[label] = ll
	}
	return ll
}

// Sorted returns the distributions sorted by label.
func (a Latencies) Sorted() []LabelLatency {
	out := make([]LabelLatency, 0, len(a))
	for _, ll := range a {
		out = append(out, *ll)
	}
	slices.SortFunc(out, func(x, y LabelLatency) int { return strings.Compare(x.Label, y.Label) })
	return out
}

// LatencyByLabel computes per-task-kind latency histograms from an event
// stream (see Latencies.Fold), sorted by label.
func LatencyByLabel(events []trace.Event) []LabelLatency {
	a := Latencies{}
	a.Fold(each(events))
	return a.Sorted()
}

// each yields events one by one, the form trace.Tasks reads.
func each(events []trace.Event) func(yield func(trace.Event)) {
	return func(yield func(trace.Event)) {
		for _, ev := range events {
			yield(ev)
		}
	}
}
