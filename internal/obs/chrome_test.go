package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// syntheticRun builds a small two-machine event stream with a root
// task, two overlapping "alpha" tasks on machine 1 (fed by an object
// copy and a coalesced dispatch from machine 0), and a "beta" task on
// the coordinator.
func syntheticRun() []trace.Event {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []trace.Event{
		{At: ms(0), Kind: trace.TaskCreated, Task: 1, Label: "main"},
		{At: ms(0), Kind: trace.TaskScheduled, Task: 1, Dst: 0, Label: "main"},
		{At: ms(0), Kind: trace.TaskStarted, Task: 1, Dst: 0, Label: "main"},

		{At: ms(1), Kind: trace.TaskCreated, Task: 2, Label: "alpha"},
		{At: ms(1), Kind: trace.TaskCreated, Task: 3, Label: "alpha"},
		{At: ms(2), Kind: trace.TaskAssigned, Task: 2, Dst: 1, Label: "alpha"},
		{At: ms(2), Kind: trace.TaskAssigned, Task: 3, Dst: 1, Label: "alpha"},
		{At: ms(2), Kind: trace.DispatchCoalesced, Task: 2, Src: 0, Dst: 1, Bytes: 64, Label: "alpha"},
		{At: ms(3), Kind: trace.ObjectCopied, Task: 2, Object: 5, Src: 0, Dst: 1, Bytes: 4096},
		{At: ms(4), Kind: trace.TaskFetched, Task: 2, Dst: 1},
		{At: ms(4), Kind: trace.TaskScheduled, Task: 2, Dst: 1, Label: "alpha"},
		{At: ms(4), Kind: trace.TaskStarted, Task: 2, Dst: 1, Label: "alpha"},
		{At: ms(5), Kind: trace.ObjectMoved, Task: 3, Object: 6, Src: 0, Dst: 1, Bytes: 1024},
		{At: ms(5), Kind: trace.TaskFetched, Task: 3, Dst: 1},
		{At: ms(5), Kind: trace.TaskScheduled, Task: 3, Dst: 1, Label: "alpha"},
		{At: ms(5), Kind: trace.TaskStarted, Task: 3, Dst: 1, Label: "alpha"},

		{At: ms(10), Kind: trace.TaskCreated, Task: 4, Label: "beta"},
		{At: ms(12), Kind: trace.TaskScheduled, Task: 4, Dst: 0, Label: "beta"},
		{At: ms(12), Kind: trace.TaskStarted, Task: 4, Dst: 0, Label: "beta"},

		{At: ms(20), Kind: trace.TaskCompleted, Task: 2, Dst: 1},
		{At: ms(21), Kind: trace.TaskCommitted, Task: 2},
		{At: ms(25), Kind: trace.TaskCompleted, Task: 3, Dst: 1},
		{At: ms(26), Kind: trace.TaskCommitted, Task: 3},
		{At: ms(30), Kind: trace.TaskCompleted, Task: 4, Dst: 0},
		{At: ms(30), Kind: trace.TaskCommitted, Task: 4},
		{At: ms(40), Kind: trace.TaskCompleted, Task: 1, Dst: 0},
		{At: ms(40), Kind: trace.TaskCommitted, Task: 1},
	}
}

func export(t *testing.T, in Input, opt Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, in, opt); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	return buf.Bytes()
}

func TestChromeGoldenDeterminism(t *testing.T) {
	in := Input{Events: syntheticRun(), Makespan: 40 * time.Millisecond}
	a := export(t, in, Options{})
	b := export(t, in, Options{})
	if !bytes.Equal(a, b) {
		t.Fatalf("two exports of the same run differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestChromeStructure(t *testing.T) {
	in := Input{Events: syntheticRun(), Makespan: 40 * time.Millisecond}
	data := export(t, in, Options{})
	st, err := Validate(data)
	if err != nil {
		t.Fatalf("Validate: %v\n%s", err, data)
	}
	for _, id := range []uint64{1, 2, 3, 4} {
		if !st.ExecTasks[id] {
			t.Errorf("no exec slice for task %d (have %v)", id, st.ExecTasks)
		}
	}
	// Copy, move and coalesced dispatch each become a flow arrow.
	if st.Flows != 3 {
		t.Errorf("flows = %d, want 3", st.Flows)
	}
	if st.Counters == 0 {
		t.Errorf("no counter samples")
	}
	if st.Truncated {
		t.Errorf("unexpected truncation marker in a full export")
	}
	// The two concurrent alpha tasks must land on distinct lanes.
	text := string(data)
	if !strings.Contains(text, `"slot 2"`) {
		t.Errorf("overlapping tasks did not open a second lane:\n%s", text)
	}
}

func TestChromeBeginEnd(t *testing.T) {
	in := Input{Events: syntheticRun(), Makespan: 40 * time.Millisecond}
	data := export(t, in, Options{BeginEnd: true})
	st, err := Validate(data)
	if err != nil {
		t.Fatalf("Validate(BeginEnd): %v\n%s", err, data)
	}
	if len(st.ExecTasks) != 4 {
		t.Fatalf("exec tasks = %d, want 4", len(st.ExecTasks))
	}
}

func TestChromeTruncatedPartialExport(t *testing.T) {
	// Simulate a ring that overwrote the run's prefix: the first eight
	// events (including task 2's create/assign/fetch) are gone.
	events := syntheticRun()[8:]
	in := Input{Events: events, Dropped: 8, Makespan: 40 * time.Millisecond}
	data := export(t, in, Options{})
	st, err := Validate(data)
	if err != nil {
		t.Fatalf("Validate(truncated): %v\n%s", err, data)
	}
	if !st.Truncated {
		t.Fatalf("export of a dropped-prefix ring has no truncation marker:\n%s", data)
	}
	// Tasks whose exec boundaries survived still render.
	for _, id := range []uint64{2, 3, 4} {
		if !st.ExecTasks[id] {
			t.Errorf("no exec slice for surviving task %d", id)
		}
	}
	// Task 1 kept its completion but lost its start: an unpaired
	// completion is ignored, not rendered from a made-up start.
	if st.ExecTasks[1] {
		t.Errorf("task 1 rendered without a surviving start event")
	}
	if !strings.Contains(string(data), `"droppedEvents":8`) {
		t.Errorf("otherData does not record the dropped count")
	}
}

func TestFlameDeterministicAndTruncationMarker(t *testing.T) {
	in := Input{Events: syntheticRun()}
	var a, b bytes.Buffer
	if err := WriteFlame(&a, in); err != nil {
		t.Fatal(err)
	}
	if err := WriteFlame(&b, in); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("flame output not deterministic")
	}
	for _, want := range []string{"machine 1;alpha;exec ", "machine 1;alpha;fetch ", "machine 0;beta;exec ", "machine 0;main;exec "} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("flame output missing %q:\n%s", want, a.String())
		}
	}
	var tr bytes.Buffer
	if err := WriteFlame(&tr, Input{Events: syntheticRun()[8:], Dropped: 8}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tr.String(), "# TRUNCATED:") {
		t.Errorf("truncated flame output lacks marker:\n%s", tr.String())
	}
}

func TestLatencyByLabel(t *testing.T) {
	lat := LatencyByLabel(syntheticRun())
	if len(lat) != 2 {
		t.Fatalf("labels = %d (%v), want 2 (alpha, beta; main excluded)", len(lat), lat)
	}
	if lat[0].Label != "alpha" || lat[1].Label != "beta" {
		t.Fatalf("labels = [%s %s], want [alpha beta]", lat[0].Label, lat[1].Label)
	}
	if lat[0].Total.Count != 2 {
		t.Fatalf("alpha count = %d, want 2", lat[0].Total.Count)
	}
	// alpha task 2: create 1ms → commit 21ms = 20ms total, exec 4→20 = 16ms.
	if max := lat[0].Total.Max(); max != 25*time.Millisecond {
		t.Fatalf("alpha total max = %v, want 25ms (task 3 create 1ms → commit 26ms)", max)
	}
	if max := lat[0].Exec.Max(); max != 20*time.Millisecond {
		t.Fatalf("alpha exec max = %v, want 20ms (task 3 sched 5ms → complete 25ms)", max)
	}
	for _, l := range lat {
		if l.Label == "main" {
			t.Fatalf("root task leaked into latency accounting")
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	if _, err := Validate([]byte(`not json`)); err == nil {
		t.Error("invalid JSON accepted")
	}
	if _, err := Validate([]byte(`{"traceEvents":[]}`)); err == nil {
		t.Error("empty trace accepted")
	}
	bad := `{"traceEvents":[
		{"ph":"X","ts":10,"dur":1,"pid":0,"tid":1,"name":"a"},
		{"ph":"X","ts":5,"dur":1,"pid":0,"tid":1,"name":"b"}]}`
	if _, err := Validate([]byte(bad)); err == nil {
		t.Error("non-monotonic per-thread timestamps accepted")
	}
	unbalanced := `{"traceEvents":[{"ph":"B","ts":1,"pid":0,"tid":1,"name":"a"}]}`
	if _, err := Validate([]byte(unbalanced)); err == nil {
		t.Error("unclosed B accepted")
	}
	orphanFlow := `{"traceEvents":[{"ph":"f","ts":1,"pid":0,"tid":1,"id":9,"name":"x"}]}`
	if _, err := Validate([]byte(orphanFlow)); err == nil {
		t.Error("flow finish without start accepted")
	}
}
