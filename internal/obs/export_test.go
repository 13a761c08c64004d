package obs

import (
	"sort"

	"repro/internal/trace"
)

// LatencyByLabelOracle is the latency rollup as it was computed before the
// fold: one concurrent Histogram per label and per distribution, recorded
// task by task and snapshotted at the end. Latencies.Fold must agree with
// it exactly.
func LatencyByLabelOracle(events []trace.Event) []LabelLatency {
	tasks := trace.Tasks(each(events))
	hists := map[string]*struct{ total, exec Histogram }{}
	for _, t := range tasks {
		if t.ID == trace.RootTask {
			continue
		}
		lbl := t.Label
		if lbl == "" {
			lbl = "(unlabeled)"
		}
		h := hists[lbl]
		if h == nil {
			h = &struct{ total, exec Histogram }{}
			hists[lbl] = h
		}
		end := t.ExecEnd
		if t.HasCommit {
			end = t.CommitEnd
		}
		start := t.ExecStart
		if t.HasQueue {
			start = t.QueueStart
		} else if t.HasFetch {
			start = t.FetchStart
		}
		h.total.Record(end - start)
		h.exec.Record(t.ExecEnd - t.ExecStart)
	}
	labels := make([]string, 0, len(hists))
	for l := range hists {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]LabelLatency, 0, len(labels))
	for _, l := range labels {
		out = append(out, LabelLatency{Label: l, Total: hists[l].total.Snapshot(), Exec: hists[l].exec.Snapshot()})
	}
	return out
}
