// Command tracecheck validates Perfetto trace exports structurally
// (used by the artifact tier of scripts/check.sh to gate `jadebench -trace-out`
// artifacts): well-formed Chrome trace JSON, known phases, per-lane
// monotonic timestamps, balanced B/E stacks, complete flow arrows.
//
//	tracecheck [-min-tasks N] [-want-flows] file.json...
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
)

func main() {
	minTasks := flag.Int("min-tasks", 1, "minimum distinct tasks with exec slices")
	wantFlows := flag.Bool("want-flows", false, "require at least one flow arrow (object transfer or coalesced dispatch)")
	flag.Parse()
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %v\n", err)
			os.Exit(1)
		}
		st, err := obs.Validate(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			os.Exit(1)
		}
		if len(st.ExecTasks) < *minTasks {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: exec slices for %d tasks, want >= %d\n",
				path, len(st.ExecTasks), *minTasks)
			os.Exit(1)
		}
		if *wantFlows && st.Flows == 0 {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: no flow arrows\n", path)
			os.Exit(1)
		}
		fmt.Printf("%s: %d events, %d slices over %d tasks, %d flows, %d counters%s\n",
			path, st.Events, st.Slices, len(st.ExecTasks), st.Flows, st.Counters,
			map[bool]string{true: " (TRUNCATED)"}[st.Truncated])
	}
}
