package jade_test

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/cholesky"
	"repro/jade"
)

// runInlineChildren runs six 10 ms tasks, each updating an array its
// creator just allocated, on a runtime with one live task: the first is
// dispatched, the other five run inline in the main task.
func runInlineChildren(t *testing.T, r *jade.Runtime) {
	t.Helper()
	err := r.Run(func(tk *jade.Task) {
		for i := 0; i < 6; i++ {
			a := jade.NewArray[float64](tk, 64, "a")
			tk.WithOnlyOpts(jade.TaskOptions{Label: "bump", Cost: 0.01},
				func(s *jade.Spec) { s.RdWr(a) },
				func(tk *jade.Task) { a.ReadWrite(tk)[0]++ })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func inlineRuntime(t *testing.T) *jade.Runtime {
	r, err := jade.NewSimulated(jade.SimConfig{Platform: jade.IPSC860(2), MaxLiveTasks: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestInlineChildFetchStartsAtClaim: an inline child is never assigned, so
// its fetch starts when it claims the processor. Its arrays are local and
// its fetch takes no time; charging it from t = 0 made the profile report
// more fetch time than the run lasted.
func TestInlineChildFetchStartsAtClaim(t *testing.T) {
	r := inlineRuntime(t)
	runInlineChildren(t, r)
	rep := r.Report()
	if rep.Profile.Tasks != 6 {
		t.Fatalf("profiled %d tasks, want 6", rep.Profile.Tasks)
	}
	if f := rep.Profile.Phases.Fetch; f != 0 {
		t.Fatalf("Phases.Fetch = %v on a %v run, want 0: every array is local", f, rep.Makespan)
	}
}

// TestViewsOfOneRunAgree: the profile, the flame export and the latency
// histograms read the same tasks from the same events, so per label they
// count the same tasks and the profile's exec and fetch totals are the
// flame's, up to the flame's rounding of each stack to whole microseconds.
func TestViewsOfOneRunAgree(t *testing.T) {
	chol := func(r *jade.Runtime) {
		m := cholesky.Symbolic(cholesky.GridLaplacian(6))
		if err := r.Run(func(tk *jade.Task) { cholesky.ToJade(tk, m, 1e-5).Factor(tk) }); err != nil {
			t.Fatal(err)
		}
	}
	prefetch, err := jade.NewSimulated(jade.SimConfig{Platform: jade.IPSC860(4), MaxLiveTasks: 4096, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	smp := jade.NewSMP(jade.SMPConfig{Procs: 2, Trace: true})
	chol(prefetch)
	chol(smp)
	inline := inlineRuntime(t)
	runInlineChildren(t, inline)

	for name, r := range map[string]*jade.Runtime{"smp": smp, "sim-prefetch": prefetch, "sim-inline": inline} {
		rep := r.Report()
		if rep.DroppedEvents != 0 {
			t.Fatalf("%s: traced run dropped %d events", name, rep.DroppedEvents)
		}
		var buf bytes.Buffer
		if err := r.ExportFlame(&buf); err != nil {
			t.Fatal(err)
		}
		flame, machines := readFlame(t, buf.String())
		latency := map[string]uint64{}
		for _, ll := range rep.Latency {
			latency[ll.Label] = ll.Total.Count
		}
		var fetched time.Duration
		for _, ls := range rep.Profile.Labels {
			tol := time.Duration(machines[ls.Label]) * time.Microsecond
			for _, c := range []struct {
				phase string
				got   time.Duration
			}{{"exec", ls.Exec}, {"fetch", ls.Fetch}} {
				want := flame[ls.Label+";"+c.phase]
				if d := c.got - want; d < -tol || d > tol {
					t.Errorf("%s: label %q: profile %s %v, flame %v (tolerance %v)", name, ls.Label, c.phase, c.got, want, tol)
				}
			}
			if latency[ls.Label] != uint64(ls.Count) {
				t.Errorf("%s: label %q: %d tasks in the latency histograms, %d in the profile",
					name, ls.Label, latency[ls.Label], ls.Count)
			}
			fetched += ls.Fetch
		}
		if name == "sim-prefetch" && fetched == 0 {
			t.Errorf("%s: no fetch time at all; the comparison is vacuous", name)
		}
		if len(rep.Latency) != len(rep.Profile.Labels) {
			t.Errorf("%s: %d labels in the latency histograms, %d in the profile", name, len(rep.Latency), len(rep.Profile.Labels))
		}
	}
}

// readFlame sums collapsed flame stacks ("machine M;label;phase µs") into
// "label;phase" totals, and counts the machines each label ran on.
func readFlame(t *testing.T, text string) (map[string]time.Duration, map[string]int) {
	t.Helper()
	sums := map[string]time.Duration{}
	seen := map[string]bool{}
	machines := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		parts := strings.Split(line[:max(sp, 0)], ";")
		us, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if sp < 0 || len(parts) != 3 || err != nil {
			t.Fatalf("malformed flame line %q", line)
		}
		sums[parts[1]+";"+parts[2]] += time.Duration(us) * time.Microsecond
		if key := parts[0] + ";" + parts[1]; !seen[key] {
			seen[key] = true
			machines[parts[1]]++
		}
	}
	return sums, machines
}
