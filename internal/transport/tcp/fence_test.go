package tcp

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/transport"
)

// TestFenceDropsLateFrames pins the fencing invariant: once the listener
// side fences a connection, data frames on it are dropped, not delivered
// — even frames already on their way when the fence landed — and the
// other end sees its connection end within one liveness deadline.
func TestFenceDropsLateFrames(t *testing.T) {
	c, s, _ := pair(t)
	if err := c.Send([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if got := recvN(t, s, 1); got[0] != "before" {
		t.Fatalf("pre-fence message = %q", got[0])
	}

	s.Fence()

	// The client does not know yet; these frames race the teardown.
	c.Send([]byte("late-1"))
	c.Send([]byte("late-2"))

	// The fenced server end must never surface them: Recv reports the
	// terminal fencing error with an empty queue.
	if msg, err := s.Recv(); !errors.Is(err, ErrFenced) {
		t.Fatalf("Recv after fence = (%q, %v), want ErrFenced", msg, err)
	}

	// The fence closed the socket, so the client's next read fails.
	recvErr(t, c, fast.deadline)
}

// TestFenceClearsQueuedFrames: frames delivered to the connection but
// not yet consumed by Recv are discarded by the fence — the application
// never observes pre-death traffic after declaring the peer dead.
func TestFenceClearsQueuedFrames(t *testing.T) {
	c, s, _ := pair(t)
	if err := c.Send([]byte("sent-before-fence")); err != nil {
		t.Fatal(err)
	}
	// Wait until the frame is queued server-side (but do not Recv it).
	waitUntil(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.recvQ.Len() > 0
	})
	s.Fence()
	if msg, err := s.Recv(); !errors.Is(err, ErrFenced) {
		t.Fatalf("Recv after fence = (%q, %v), want ErrFenced", msg, err)
	}
}

// TestRedialAfterFenceGetsNewSession: a fenced peer that is in fact
// alive loses its connection, and its way back is a fresh Dial — a new
// connection that surfaces through Accept and carries traffic, which the
// application admits as a new member.
func TestRedialAfterFenceGetsNewSession(t *testing.T) {
	c, s, l := pair(t)
	s.Fence()
	recvErr(t, c, fast.deadline)

	acceptCh := make(chan transport.Conn, 1)
	go func() {
		nc, err := l.Accept()
		if err == nil {
			acceptCh <- nc
		}
	}()
	c2, err := dial(l.Addr(), fast)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.Send([]byte("hello again"))
	select {
	case nc := <-acceptCh:
		defer nc.Close()
		if got := recvN(t, nc, 1); got[0] != "hello again" {
			t.Fatalf("new connection delivered %q", got[0])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("listener never surfaced the new connection")
	}
}

// TestCadenceSingleSource is the tcp side of the drift guard: the
// transport's liveness parameters must be exactly the shared
// fault.Cadence scaled by LivenessScale — no independently-maintained
// copies of the detector constants.
func TestCadenceSingleSource(t *testing.T) {
	got := defaultCadence()
	want := fault.DefaultCadence().Scaled(LivenessScale)
	if got.interval != want.HeartbeatInterval {
		t.Errorf("heartbeat interval = %v, want %v", got.interval, want.HeartbeatInterval)
	}
	if got.deadline != want.Deadline() {
		t.Errorf("liveness deadline = %v, want fault.Cadence.Deadline() = %v", got.deadline, want.Deadline())
	}
}

// waitUntil polls cond until it holds or the test times out.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
