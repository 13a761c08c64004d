package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesBenchmarkJSON: the names, units, directions, bounds and
// workload reasons the harness uses are the ones BENCHMARK.json declares.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, want []metricSpec, got []jsonMetric) {
		if len(want) != len(got) {
			t.Fatalf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(want), len(got))
		}
		seen := map[string]bool{}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s[%d]: harness %+v, BENCHMARK.json %+v", kind, i, w, g)
			}
			if !nameRE.MatchString(g.Name) {
				t.Errorf("%s: name %q is not made of letters, digits, '_', '.' and '-'", kind, g.Name)
			}
			if seen[g.Name] {
				t.Errorf("%s: name %q used twice", kind, g.Name)
			}
			seen[g.Name] = true
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("harness has %d workloads, BENCHMARK.json %d", len(workloads), len(spec.Workloads))
	}
	for i, w := range workloads {
		if g := spec.Workloads[i]; g.Name != w.name || g.Why != w.why {
			t.Errorf("workload %d: harness %q (%q), BENCHMARK.json %q (%q)", i, w.name, w.why, g.Name, g.Why)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", spec.RunSeconds, defaultSeconds)
	}
}

var pinnedFailure = regexp.MustCompile(`(round \d+|traced): failed op|missing or NaN`)

// TestSmoke runs every workload through both passes for a fraction of a
// second at GOMAXPROCS=1: no op may fail, every metric must be printed
// exactly once with a number, and the span files must parse with every
// span's parent present.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := t.TempDir()
	for _, w := range workloads {
		o := options{workloads: []workload{w}, seed: defaultSeed, seconds: 0.3, rounds: 1, setups: 1, trace: -1, out: out}
		var stdout bytes.Buffer
		res, err := measure(o, &stdout)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.name, err, stdout.String())
		}
		// The wide pass is ungated: at GOMAXPROCS > 1 the live executor
		// loses ops to a known race, and those lines are not a failure here.
		if pinnedFailure.MatchString(stdout.String()) {
			t.Errorf("%s: output reports a failure:\n%s", w.name, stdout.String())
		}
		if miss := missing(endToEnd, res.e2e); len(miss) > 0 {
			t.Errorf("%s: end-to-end metrics missing: %v", w.name, miss)
		}
		if d := res.driver; !d.Correct || d.Failed != 0 || d.Attempted < 1 || len(d.Metrics) != len(perLayer) {
			t.Errorf("%s: traced pass result correct=%v attempted=%d failed=%d with %d metrics, want %d",
				w.name, d.Correct, d.Attempted, d.Failed, len(d.Metrics), len(perLayer))
		}
		// Every name is printed exactly once, as "<workload> <name> <value> <unit>".
		printed := map[string]int{}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if f := strings.Fields(line); len(f) >= 4 && f[0] == w.name {
				printed[f[1]]++
			}
		}
		for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
			if printed[s.name] != 1 {
				t.Errorf("%s: metric %s printed %d times, want once", w.name, s.name, printed[s.name])
			}
		}
		checkSpans(t, filepath.Join(out, "spans-"+w.name+".json"))
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if len(doc.TraceEvents) == 0 {
		t.Errorf("%s: no spans", path)
	}
	ids := map[int32]bool{}
	for _, e := range doc.TraceEvents {
		ids[e.Args.ID] = true
	}
	for _, e := range doc.TraceEvents {
		if e.Args.Parent != -1 && !ids[e.Args.Parent] {
			t.Errorf("%s: span %d (%s) names parent %d, which is not in the file", path, e.Args.ID, e.Name, e.Args.Parent)
		}
		if e.Dur < 0 {
			t.Errorf("%s: span %d (%s) has negative duration", path, e.Args.ID, e.Name)
		}
	}
}
