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
	tasks := buildTasks(each(events))
	hists := map[string]*struct{ total, exec Histogram }{}
	for _, t := range tasks {
		if t.id == rootTask {
			continue
		}
		lbl := t.label
		if lbl == "" {
			lbl = "(unlabeled)"
		}
		h := hists[lbl]
		if h == nil {
			h = &struct{ total, exec Histogram }{}
			hists[lbl] = h
		}
		end := t.execEnd
		if t.hasCommit {
			end = t.commitEnd
		}
		start := t.execStart
		if t.hasQueue {
			start = t.queueStart
		} else if t.hasFetch {
			start = t.fetchStart
		}
		h.total.Record(end - start)
		h.exec.Record(t.execEnd - t.execStart)
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
