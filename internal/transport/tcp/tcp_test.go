package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

// fast keeps the heartbeat interval and the liveness deadline small so
// the failure-path tests run in milliseconds.
var fast = cadence{interval: 40 * time.Millisecond, deadline: 200 * time.Millisecond}

// pair starts a listener and returns a connected client/server pair.
func pair(t *testing.T) (client, server *conn, l *Listener) {
	t.Helper()
	l, err := listen("127.0.0.1:0", fast)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	c, err := dial(l.Addr(), fast)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); sc.Close() })
	return c, sc.(*conn), l
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

// recvErr drains c until Recv fails and returns the error, failing the
// test if the connection is still open after within.
func recvErr(t *testing.T, c transport.Conn, within time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := c.Recv(); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(within):
		t.Fatalf("connection still open %v later", within)
		return nil
	}
}

// TestRoundTrip: messages cross a real socket both ways in order.
func TestRoundTrip(t *testing.T) {
	c, s, _ := pair(t)
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
	c, s, _ := pair(t)
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
// the partial frame must never be delivered, and the connection ends at
// the read error itself: Recv reports the torn frame, not a timeout and
// not an orderly close.
func TestPeerDiesMidFrame(t *testing.T) {
	l, err := listen("127.0.0.1:0", fast)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	go func() {
		raw, err := net.Dial("tcp", l.Addr())
		if err != nil {
			return
		}
		writeHandshake(raw)
		readHandshake(raw)
		// One whole message...
		writeFrame(raw, fData, []byte("whole"))
		// ...then a frame whose length prefix promises 100 bytes but the
		// connection dies after 3.
		partial := binary.BigEndian.AppendUint32(nil, 100)
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
	// The socket ends in an unexpected EOF, or in a reset if a heartbeat
	// was still unread when the peer closed.
	err = recvErr(t, sc, 10*time.Second)
	var ne net.Error
	if errors.Is(err, transport.ErrClosed) || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("Recv after a torn frame = %v, want the read error that tore it", err)
	}
}

// TestDroppedSocketEndsBothSides: a connection is its socket. Closing
// the socket under one end — a network failure, not a Close — fails both
// ends within a liveness deadline, and nothing redials: each Recv
// reports an error other than ErrClosed, and Send refuses.
func TestDroppedSocketEndsBothSides(t *testing.T) {
	c, s, _ := pair(t)
	c.Send([]byte("before"))
	recvN(t, s, 1)
	c.raw.Close()
	for _, end := range []*conn{c, s} {
		if err := recvErr(t, end, fast.deadline); errors.Is(err, transport.ErrClosed) {
			t.Fatalf("a dropped socket surfaced as an orderly close")
		}
	}
	if err := c.Send([]byte("after")); err == nil {
		t.Fatal("Send on a dead connection succeeded")
	}
}

// TestHeartbeats: an idle connection emits heartbeats and stays alive
// well past the liveness deadline.
func TestHeartbeats(t *testing.T) {
	c, s, _ := pair(t)
	time.Sleep(3 * fast.deadline)
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

// TestHandshakeVersionMismatch: a peer speaking another transport
// version — the resuming version 1 among them — is rejected at the
// handshake.
func TestHandshakeVersionMismatch(t *testing.T) {
	l, err := listen("127.0.0.1:0", fast)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, v := range []byte{hsVersion - 1, hsVersion + 1} {
		raw, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		raw.Write([]byte{'J', 'T', 'P', v})
		// The listener drops the connection without a reply.
		raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		var buf [1]byte
		if _, err := raw.Read(buf[:]); err == nil {
			t.Fatalf("listener answered a version %d handshake", v)
		}
		raw.Close()
	}
}

// TestControlFrameSizeEnforced: heartbeat and fin frames have no body,
// checked before anything is allocated. A heartbeat-typed frame claiming
// 64 MiB fails the connection with an error that says so, and costs no
// 64 MiB.
func TestControlFrameSizeEnforced(t *testing.T) {
	l, err := listen("127.0.0.1:0", fast)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	writeHandshake(raw)
	readHandshake(raw)
	bogus := binary.BigEndian.AppendUint32(nil, 64<<20)
	raw.Write(append(bogus, fHeartbeat, 0, 0, 0))

	sc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	_, err = sc.Recv()
	if err == nil || err == transport.ErrClosed || !strings.Contains(err.Error(), "H frame claims 67108864 bytes") {
		t.Fatalf("Recv = %v, want a connection failure naming the oversized heartbeat", err)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting the frame allocated %d bytes, want well under 1 MiB", grew)
	}

	// The other fixed sizes, at the parser.
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"heartbeat with a body", appendWireFrame(nil, fHeartbeat, []byte{1})},
		{"fin with a body", appendWireFrame(nil, fFin, []byte{1})},
		{"unknown type", appendWireFrame(nil, 'Z', nil)},
		{"zero-length heartbeat", []byte{0, 0, 0, 0, fHeartbeat}},
		{"zero-length data", []byte{0, 0, 0, 0, fData}},
	} {
		if _, err := readAll(tc.data, false); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
