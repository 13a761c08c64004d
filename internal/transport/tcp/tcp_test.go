package tcp

import (
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/transport"
)

// fastOpts keeps detector and reconnect delays small so the failure-path
// tests run in milliseconds.
func fastOpts() Options {
	return Options{
		HeartbeatInterval: 40 * time.Millisecond,
		HeartbeatTimeout:  20 * time.Millisecond,
		HeartbeatRetries:  3,
		RetryBackoff:      5 * time.Millisecond,
		DialTimeout:       2 * time.Second,
		SessionTimeout:    5 * time.Second,
	}
}

// pair starts a listener and returns a connected client/server session.
func pair(t *testing.T, opts Options) (client, server *session, l *Listener) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	type res struct {
		c   transport.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := Dial(l.Addr(), opts)
		ch <- res{c, err}
	}()
	sc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { r.c.Close(); sc.Close() })
	return r.c.(*session), sc.(*session), l
}

// recvN collects n messages or fails after a timeout.
func recvN(t *testing.T, c transport.Conn, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	done := make(chan error, 1)
	go func() {
		for len(out) < n {
			msg, err := c.Recv()
			if err != nil {
				done <- err
				return
			}
			out = append(out, string(msg))
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("recvN: %v (got %d/%d)", err, len(out), n)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("recvN: timeout with %d/%d messages", len(out), n)
	}
	return out
}

// TestRoundTrip: messages cross a real socket both ways in order.
func TestRoundTrip(t *testing.T) {
	c, s, _ := pair(t, fastOpts())
	const n = 50
	for i := 0; i < n; i++ {
		if err := c.Send([]byte(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Send([]byte(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, msg := range recvN(t, s, n) {
		if msg != fmt.Sprintf("c%d", i) {
			t.Fatalf("server msg %d = %q", i, msg)
		}
	}
	for i, msg := range recvN(t, c, n) {
		if msg != fmt.Sprintf("s%d", i) {
			t.Fatalf("client msg %d = %q", i, msg)
		}
	}
}

// TestOrderlyClose: Close delivers queued messages, then the peer's Recv
// reports ErrClosed.
func TestOrderlyClose(t *testing.T) {
	c, s, _ := pair(t, fastOpts())
	c.Send([]byte("last"))
	c.Close()
	msg, err := s.Recv()
	if err != nil || string(msg) != "last" {
		t.Fatalf("Recv = %q, %v", msg, err)
	}
	if _, err := s.Recv(); err != transport.ErrClosed {
		t.Fatalf("Recv after peer fin = %v, want ErrClosed", err)
	}
}

// TestPeerDiesMidFrame: a raw client that sends a whole message, then
// half a frame, then vanishes. The delivered prefix must surface intact,
// the partial frame must never be delivered, and once the session times
// out Recv reports the failure.
func TestPeerDiesMidFrame(t *testing.T) {
	opts := fastOpts()
	opts.SessionTimeout = 200 * time.Millisecond
	l, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	go func() {
		raw, err := net.Dial("tcp", l.Addr())
		if err != nil {
			return
		}
		writeHandshake(raw, 0, 0)
		readHandshake(raw)
		// One whole message...
		body := binary.BigEndian.AppendUint64(nil, 1)
		body = append(body, []byte("whole")...)
		writeFrame(raw, fData, body)
		// ...then a frame whose length prefix promises 100 bytes but the
		// connection dies after 3.
		var partial []byte
		partial = binary.BigEndian.AppendUint32(partial, 100)
		partial = append(partial, fData, 0, 0)
		raw.Write(partial)
		time.Sleep(50 * time.Millisecond)
		raw.Close()
	}()

	sc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := sc.Recv()
	if err != nil || string(msg) != "whole" {
		t.Fatalf("Recv = %q, %v, want the whole message", msg, err)
	}
	// The partial frame is never delivered; the peer never resumes, so
	// after SessionTimeout the session dies with an error (not a hang).
	if _, err := sc.Recv(); err == nil {
		t.Fatal("Recv delivered data from a partial frame")
	} else if err == transport.ErrClosed {
		t.Fatal("mid-frame death surfaced as orderly close")
	}
}

// TestReconnectResumes: the raw socket is killed while a stream of
// messages is in flight; the dialing side reconnects with backoff and
// delivery resumes at the next whole message — every message arrives
// exactly once, in order.
func TestReconnectResumes(t *testing.T) {
	c, s, _ := pair(t, fastOpts())
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			c.Send([]byte(fmt.Sprintf("m%d", i)))
			if i == 50 || i == 120 {
				c.dropRaw() // network failure, not a close
			}
		}
	}()
	got := recvN(t, s, n)
	for i, msg := range got {
		if msg != fmt.Sprintf("m%d", i) {
			t.Fatalf("msg %d = %q: stream did not resume at the next whole message", i, msg)
		}
	}
	// Whether frames were still unacked when the socket dropped is a timing
	// accident, so Retransmits is not asserted here;
	// TestDuplicateDroppedBySeq pins retransmission deterministically.
	if st := c.Stats(); st.Reconnects == 0 {
		t.Error("client Stats().Reconnects = 0, want > 0")
	}
}

// TestDuplicateDroppedBySeq mirrors the fault.Network once-per-message
// contract: the client is rigged to ignore acks, so after a reconnect it
// retransmits messages the server has already delivered. The server must
// drop every duplicate by sequence number.
func TestDuplicateDroppedBySeq(t *testing.T) {
	c, s, _ := pair(t, fastOpts())
	c.mu.Lock()
	c.ignoreAcks = true
	c.mu.Unlock()

	const n = 10
	for i := 0; i < n; i++ {
		c.Send([]byte(fmt.Sprintf("d%d", i)))
	}
	first := recvN(t, s, n) // all n delivered once
	for i, msg := range first {
		if msg != fmt.Sprintf("d%d", i) {
			t.Fatalf("msg %d = %q", i, msg)
		}
	}

	// Kill the socket: the client believes nothing was acked and
	// retransmits all n on resume.
	c.dropRaw()
	c.Send([]byte("after"))
	if got := recvN(t, s, 1); got[0] != "after" {
		t.Fatalf("post-resume msg = %q, want \"after\" (duplicates leaked)", got[0])
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.DupsDropped >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server Stats().DupsDropped = %d, want >= %d", s.Stats().DupsDropped, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := c.Stats(); st.Retransmits < n {
		t.Errorf("client Stats().Retransmits = %d, want >= %d", st.Retransmits, n)
	}
}

// TestHeartbeats: an idle session emits heartbeats and stays alive well
// past the liveness deadline.
func TestHeartbeats(t *testing.T) {
	opts := fastOpts()
	c, s, _ := pair(t, opts)
	time.Sleep(3 * opts.deadline())
	if err := c.Send([]byte("still-here")); err != nil {
		t.Fatalf("Send after idle period: %v", err)
	}
	if got := recvN(t, s, 1); got[0] != "still-here" {
		t.Fatalf("got %q", got[0])
	}
	if st := c.Stats(); st.Heartbeats == 0 {
		t.Error("client sent no heartbeats during idle period")
	}
	if st := s.Stats(); st.Heartbeats == 0 {
		t.Error("server sent no heartbeats during idle period")
	}
}

// TestReconnectGivesUp: when the listener is gone for good, redial
// exhausts its backoff budget and the session fails instead of hanging.
func TestReconnectGivesUp(t *testing.T) {
	opts := fastOpts()
	c, _, l := pair(t, opts)
	l.Close()
	l.nl.Close()
	c.dropRaw()
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || err == transport.ErrClosed {
			t.Fatalf("Recv = %v, want a reconnect-failure error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session hung instead of failing after reconnect attempts")
	}
}

// TestHandshakeVersionMismatch: a peer speaking a different transport
// version is rejected at the handshake.
func TestHandshakeVersionMismatch(t *testing.T) {
	opts := fastOpts()
	l, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	bad := []byte{'J', 'T', 'P', hsVersion + 1}
	bad = binary.BigEndian.AppendUint64(bad, 0)
	bad = binary.BigEndian.AppendUint64(bad, 0)
	raw.Write(bad)
	// The listener drops the connection without a reply.
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	var buf [1]byte
	if _, err := raw.Read(buf[:]); err == nil {
		t.Fatal("listener answered a wrong-version handshake")
	}
}
