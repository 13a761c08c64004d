package transport

import "testing"

// TestFIFOOrderAndRelease: items come out in order, and a popped slot no
// longer references its message even while later ones are still queued —
// the slow-consumer case, where the dead prefix used to pin every message
// already delivered.
func TestFIFOOrderAndRelease(t *testing.T) {
	var q FIFO[[]byte]
	for i := 0; i < 8; i++ {
		q.Push([]byte{byte(i)})
	}
	for i := 0; i < 5; i++ {
		if got := q.Pop(); got[0] != byte(i) {
			t.Fatalf("pop %d = %v", i, got)
		}
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	for i, m := range q.items[:q.head] {
		if m != nil {
			t.Errorf("slot %d still references its popped message", i)
		}
	}
	for i := 5; i < 8; i++ {
		if got := q.Pop(); got[0] != byte(i) {
			t.Fatalf("pop %d = %v", i, got)
		}
	}
	q.Push([]byte{9})
	q.Reset()
	if q.Len() != 0 || q.items != nil {
		t.Error("Reset left items behind")
	}
}

// TestFIFOSteadyStateAllocatesNothing: request/reply traffic — the queue
// drains between pushes — reuses one array.
func TestFIFOSteadyStateAllocatesNothing(t *testing.T) {
	var q FIFO[[]byte]
	msg := []byte("m")
	q.Push(msg)
	q.Pop()
	if allocs := testing.AllocsPerRun(1000, func() {
		q.Push(msg)
		q.Push(msg)
		q.Pop()
		q.Pop()
	}); allocs != 0 {
		t.Errorf("%.1f allocs per drained burst, want 0", allocs)
	}
}

// TestFIFOBacklogStaysBounded: a queue that never drains does not grow
// with the number of messages that have passed through it, only with the
// depth of the backlog.
func TestFIFOBacklogStaysBounded(t *testing.T) {
	var q FIFO[int]
	const depth = 10
	for i := 0; i < depth; i++ {
		q.Push(i)
	}
	for i := depth; i < 100000; i++ {
		q.Push(i)
		if got := q.Pop(); got != i-depth {
			t.Fatalf("pop = %d, want %d", got, i-depth)
		}
	}
	if c := cap(q.items); c > 4*depth {
		t.Errorf("array grew to %d slots for a backlog of %d", c, depth)
	}
}

// TestQueueClose: a closed queue refuses puts and drains what it held
// before returning ErrClosed; CloseDiscard drops what it held.
func TestQueueClose(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 2; i++ {
		if err := q.Put([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	if err := q.Put([]byte{9}); err != ErrClosed {
		t.Fatalf("put after close: %v, want ErrClosed", err)
	}
	for i := 0; i < 2; i++ {
		if m, err := q.Get(); err != nil || m[0] != byte(i) {
			t.Fatalf("get %d after close = %v, %v", i, m, err)
		}
	}
	if _, err := q.Get(); err != ErrClosed {
		t.Fatalf("get from a closed, drained queue: %v, want ErrClosed", err)
	}

	q = NewQueue()
	if err := q.Put([]byte{1}); err != nil {
		t.Fatal(err)
	}
	q.CloseDiscard()
	if _, err := q.Get(); err != ErrClosed {
		t.Fatalf("get after CloseDiscard: %v, want ErrClosed", err)
	}
	if q.Len() != 0 {
		t.Fatalf("CloseDiscard kept %d messages", q.Len())
	}
}
