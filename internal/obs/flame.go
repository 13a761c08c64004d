package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/trace"
)

// WriteFlame renders the run as flamegraph-style collapsed stacks, one
// line per stack with a microsecond weight:
//
//	machine 2;choleskyMod;exec 18874
//
// The stack is machine;task-label;phase, aggregated over every retired
// task, so piping the output through a flamegraph renderer (or just
// sorting it) shows where the run's time went by kind and phase. A
// truncated ring is flagged with a comment line, never silently.
func WriteFlame(w io.Writer, in Input) error {
	type key struct {
		machine int
		label   string
		phase   string
	}
	agg := map[key]time.Duration{}
	add := func(m int, label, phase string, d time.Duration) {
		if d > 0 {
			agg[key{m, label, phase}] += d
		}
	}
	for _, t := range trace.Tasks(each(in.Events)) {
		label := t.Label
		if label == "" {
			label = fmt.Sprintf("task %d", t.ID)
			if t.ID == trace.RootTask {
				label = "main"
			}
		}
		if t.HasQueue {
			add(t.Machine, label, "queue", t.QueueEnd()-t.QueueStart)
		}
		if t.HasFetch {
			add(t.Machine, label, "fetch", t.Fetched-t.FetchStart)
		}
		add(t.Machine, label, "exec", t.ExecEnd-t.ExecStart)
		if t.HasCommit {
			add(t.Machine, label, "commit", t.CommitEnd-t.ExecEnd)
		}
	}
	keys := make([]key, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.machine != b.machine {
			return a.machine < b.machine
		}
		if a.label != b.label {
			return a.label < b.label
		}
		return a.phase < b.phase
	})
	bw := bufio.NewWriter(w)
	if in.Dropped > 0 {
		fmt.Fprintf(bw, "# TRUNCATED: ring dropped %d earlier events; stacks cover a suffix of the run\n", in.Dropped)
	}
	for _, k := range keys {
		us := agg[k].Microseconds()
		if us <= 0 {
			us = 1 // flamegraph weights must be positive; sub-µs phases round up
		}
		fmt.Fprintf(bw, "machine %d;%s;%s %d\n", k.machine, k.label, k.phase, us)
	}
	return bw.Flush()
}
