package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// span is one harness-timed interval around a call into a layer. Spans are
// recorded by the benchmark's own files, from outside the program: the
// runtime under test is not instrumented.
type span struct {
	name       string
	start, end int64 // ns since the recorder's epoch
	parent     int32 // index of the causing span, -1 for a root
	op         int32 // operation id shared by every span of one op
	lane       int32 // client goroutine, the Chrome-trace tid
}

// recorder keeps spans in a preallocated slice and writes them out once,
// when the pass ends. A nil *recorder records nothing, so timed rounds run
// the same code with spans off.
type recorder struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int32
	dropped atomic.Int32
	// objects and issued count what the "alloc"/"gather" and "issue"
	// spans covered: shared objects allocated and tasks created.
	objects, issued atomic.Int64
}

// covered adds to the span denominators; a nil recorder ignores it.
func (r *recorder) covered(objects, issued int) {
	if r != nil {
		r.objects.Add(int64(objects))
		r.issued.Add(int64(issued))
	}
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id (-1 when recording is off or the
// buffer is full; such a span is counted as dropped and end ignores it).
func (r *recorder) begin(name string, parent, op, lane int32) int32 {
	if r == nil {
		return -1
	}
	return r.add(name, r.now(), 0, parent, op, lane)
}

func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].end = r.now()
}

// add records a span whose bounds the caller measured itself (a request
// that completes on a worker goroutine, a wait estimated from a total).
func (r *recorder) add(name string, start, end int64, parent, op, lane int32) int32 {
	if r == nil {
		return -1
	}
	i := r.next.Add(1) - 1
	if int(i) >= len(r.spans) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{name: name, start: start, end: end, parent: parent, op: op, lane: lane}
	return i
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	n := int(r.next.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	return r.spans[:n]
}

// durations returns the length in ms of every closed span called name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.all() {
		if s.name == name && s.end >= s.start {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// chromeEvent is one complete ("X") slice of the Chrome trace-event format.
type chromeEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`  // µs
	Dur  float64    `json:"dur"` // µs
	Pid  int        `json:"pid"`
	Tid  int32      `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	ID     int32   `json:"id"`
	Parent int32   `json:"parent"`
	Op     int32   `json:"op"`
	SelfUs float64 `json:"self_us"` // duration minus the child spans
}

// writeChrome writes the spans of one traced pass as Chrome-trace JSON
// (loadable in chrome://tracing or Perfetto).
func (r *recorder) writeChrome(path string) error {
	spans := r.all()
	childNs := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 && s.end >= s.start {
			childNs[s.parent] += s.end - s.start
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprintf(w, `{"displayTimeUnit":"ms","droppedSpans":%d,"traceEvents":[`, r.dropped.Load())
	first := true
	for i, s := range spans {
		if !first {
			w.WriteByte(',')
		}
		first = false
		dur := s.end - s.start
		if dur < 0 {
			dur = 0 // never closed: the op failed part-way; keep it so its children still have a parent
		}
		err := enc.Encode(chromeEvent{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(dur) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: chromeArgs{ID: int32(i), Parent: s.parent, Op: s.op, SelfUs: float64(dur-childNs[i]) / 1e3},
		})
		if err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
