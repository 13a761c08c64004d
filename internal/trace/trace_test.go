package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(Event{Kind: TaskCreated})
	if l.Events() != nil || l.Len() != 0 {
		t.Fatal("nil log should discard")
	}
}

func TestAddAndFilter(t *testing.T) {
	l := New()
	l.Add(Event{Kind: TaskCreated, Task: 1})
	l.Add(Event{Kind: TaskStarted, Task: 1, Dst: 0})
	l.Add(Event{Kind: TaskCreated, Task: 2})
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	created := l.Filter(TaskCreated)
	if len(created) != 2 || created[0].Task != 1 || created[1].Task != 2 {
		t.Fatalf("filter = %v", created)
	}
}

func TestConcurrentAdd(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Add(Event{Kind: MessageSent, Bytes: 1})
			}
		}()
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestTaskGraphDOT(t *testing.T) {
	l := New()
	l.Add(Event{Kind: TaskCreated, Task: 1, Label: "internal(0)"})
	l.Add(Event{Kind: TaskCreated, Task: 2, Label: "external(0,3)"})
	l.Add(Event{Kind: Depend, Task: 1, Other: 2, Object: 7})
	l.Add(Event{Kind: Depend, Task: 1, Other: 2, Object: 7}) // duplicate
	dot := TaskGraphDOT(l, "fig4")
	if !strings.Contains(dot, `t1 [label="internal(0)"]`) {
		t.Fatalf("missing node label:\n%s", dot)
	}
	if strings.Count(dot, "t1 -> t2") != 1 {
		t.Fatalf("edges should be deduplicated:\n%s", dot)
	}
	if !strings.HasPrefix(dot, `digraph "fig4"`) {
		t.Fatalf("bad header:\n%s", dot)
	}
}

func TestGantt(t *testing.T) {
	l := New()
	l.Add(Event{At: 0, Kind: TaskStarted, Task: 1, Dst: 0, Label: "a"})
	l.Add(Event{At: time.Millisecond, Kind: TaskCompleted, Task: 1})
	l.Add(Event{At: 0, Kind: TaskStarted, Task: 2, Dst: 1, Label: "b"})
	l.Add(Event{At: 2 * time.Millisecond, Kind: TaskCompleted, Task: 2})
	g := Gantt(l)
	if !strings.Contains(g, "machine 0:") || !strings.Contains(g, "machine 1:") {
		t.Fatalf("gantt missing machines:\n%s", g)
	}
	if !strings.Contains(g, "a]") || !strings.Contains(g, "b]") {
		t.Fatalf("gantt missing labels:\n%s", g)
	}
}

func TestEventString(t *testing.T) {
	ev := Event{At: time.Millisecond, Kind: ObjectMoved, Task: 3, Object: 9, Src: 0, Dst: 1, Bytes: 64, Label: "col0"}
	s := ev.String()
	for _, want := range []string{"object-moved", "task=3", "obj=9", "0->1", "64B", `"col0"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatal("unknown kind string")
	}
}
