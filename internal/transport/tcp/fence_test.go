package tcp

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/transport"
)

// TestFenceDropsLateFrames pins the fencing invariant: once the listener
// side fences a session, data frames from that session id are dropped,
// not delivered — even frames already queued on the socket when the
// fence landed.
func TestFenceDropsLateFrames(t *testing.T) {
	c, s, _ := pair(t, fastOpts())
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

	// The fenced server session must never surface them: Recv reports the
	// terminal fencing error with an empty queue.
	if msg, err := s.Recv(); !errors.Is(err, ErrFenced) {
		t.Fatalf("Recv after fence = (%q, %v), want ErrFenced", msg, err)
	}

	// The client side eventually learns the session is dead: its resume
	// attempts present a deregistered id and are rejected until the redial
	// budget is exhausted.
	deadline := time.After(10 * time.Second)
	for {
		if _, err := c.Recv(); err != nil {
			break
		}
		select {
		case <-deadline:
			t.Fatal("client session survived a server-side fence")
		default:
		}
	}
}

// TestFenceClearsQueuedFrames: frames delivered to the session but not
// yet consumed by Recv are discarded by the fence — the application
// never observes pre-death traffic after declaring the peer dead.
func TestFenceClearsQueuedFrames(t *testing.T) {
	c, s, _ := pair(t, fastOpts())
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

// TestRedialAfterFenceGetsNewSession: a fenced worker that is actually
// alive cannot resume its old session — a fresh Dial succeeds and is
// assigned a NEW session id, making it a new member rather than a
// returning ghost.
func TestRedialAfterFenceGetsNewSession(t *testing.T) {
	c, s, l := pair(t, fastOpts())
	oldID := c.SessionID()
	if oldID != s.SessionID() {
		t.Fatalf("session ids disagree: client %d, server %d", oldID, s.SessionID())
	}
	s.Fence()

	// Resuming the fenced id must fail: the listener no longer knows it.
	if _, _, _, err := clientHandshake(l.Addr(), fastOpts(), oldID, 0); err == nil {
		t.Fatal("resume handshake of a fenced session id succeeded")
	}

	// A fresh dial is a new session with a new id.
	acceptCh := make(chan transport.Conn, 1)
	go func() {
		nc, err := l.Accept()
		if err == nil {
			acceptCh <- nc
		}
	}()
	c2, err := Dial(l.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	newID := c2.(*session).SessionID()
	if newID == oldID {
		t.Fatalf("redial after fence reused session id %d", oldID)
	}
	select {
	case nc := <-acceptCh:
		if nc.(*session).SessionID() != newID {
			t.Fatalf("accepted session id %d, dialed %d", nc.(*session).SessionID(), newID)
		}
		nc.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("listener never surfaced the new session")
	}
}

// TestCadenceSingleSource is the tcp side of the drift guard: the
// transport's default liveness parameters must be exactly the shared
// fault.Cadence scaled by LivenessScale — no independently-maintained
// copies of the detector constants.
func TestCadenceSingleSource(t *testing.T) {
	got := Options{}.withDefaults()
	want := fault.DefaultCadence().Scaled(LivenessScale)
	if got.HeartbeatInterval != want.HeartbeatInterval {
		t.Errorf("HeartbeatInterval = %v, want %v", got.HeartbeatInterval, want.HeartbeatInterval)
	}
	if got.HeartbeatTimeout != want.HeartbeatTimeout {
		t.Errorf("HeartbeatTimeout = %v, want %v", got.HeartbeatTimeout, want.HeartbeatTimeout)
	}
	if got.HeartbeatRetries != want.HeartbeatRetries {
		t.Errorf("HeartbeatRetries = %d, want %d", got.HeartbeatRetries, want.HeartbeatRetries)
	}
	if got.RetryBackoff != want.RetryBackoff {
		t.Errorf("RetryBackoff = %v, want %v", got.RetryBackoff, want.RetryBackoff)
	}
	if got.deadline() != want.Deadline() {
		t.Errorf("deadline() = %v, want fault.Cadence.Deadline() = %v", got.deadline(), want.Deadline())
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
