package tcp

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// countConn counts what a session's writer puts on its raw socket. The
// writer only ever writes whole frames, so each Write parses on its own.
type countConn struct {
	net.Conn
	t        *testing.T
	writes   atomic.Int64
	acks     atomic.Int64 // ack frames, carried or not
	ackOnly  atomic.Int64 // writes holding nothing but an ack
	dataSeen atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	frames, err := readAll(p)
	if err != nil {
		c.t.Errorf("writer put a partial or malformed frame train on the wire: %v", err)
	}
	only := len(frames) > 0
	for _, f := range frames {
		switch f.typ {
		case fAck:
			c.acks.Add(1)
		case fData:
			c.dataSeen.Add(1)
			only = false
		default:
			only = false
		}
	}
	c.writes.Add(1)
	if only {
		c.ackOnly.Add(1)
	}
	return c.Conn.Write(p)
}

// countedPair connects two sessions over a real loopback socket with a
// countConn around each end. There is no listener behind them: these
// tests never drop the socket.
func countedPair(t *testing.T, opts Options) (c, s *session, cc, sc *countConn) {
	t.Helper()
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed := make(chan net.Conn, 1)
	go func() {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Error(err)
		}
		dialed <- raw
	}()
	sraw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	craw := <-dialed
	if craw == nil {
		t.FailNow()
	}
	cc, sc = &countConn{Conn: craw, t: t}, &countConn{Conn: sraw, t: t}
	c, s = newSession(opts, 1, ""), newSession(opts, 1, "")
	c.attach(cc, 0)
	s.attach(sc, 0)
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s, cc, sc
}

// slowBeat is a cadence whose idle timer stays out of a test that runs
// for milliseconds: whatever acks it sees were caused by traffic.
func slowBeat() Options {
	o := fastOpts()
	o.HeartbeatInterval = 500 * time.Millisecond
	o.HeartbeatTimeout = 500 * time.Millisecond
	return o
}

func unackedLen(s *session) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.unacked)
}

// TestAcksRideReplies: in request/reply traffic every ack has a data frame
// to ride, so no write carries an ack alone. The only exception the rule
// allows is the idle timer, which needs a whole silent interval.
func TestAcksRideReplies(t *testing.T) {
	opts := slowBeat()
	start := time.Now()
	c, s, cc, sc := countedPair(t, opts)
	go func() {
		for {
			msg, err := s.Recv()
			if err != nil {
				return
			}
			if s.SendOwned(msg) != nil {
				return
			}
		}
	}()
	const trips = 1000
	for i := 0; i < trips; i++ {
		want := fmt.Sprintf("req-%d", i)
		if err := c.Send([]byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv()
		if err != nil || string(got) != want {
			t.Fatalf("trip %d: Recv = %q, %v", i, got, err)
		}
	}
	ackOnly := cc.ackOnly.Load() + sc.ackOnly.Load()
	idleTicks := int64(time.Since(start) / opts.HeartbeatInterval)
	if ackOnly > idleTicks {
		t.Errorf("%d round trips produced %d ack-only writes (%d idle intervals elapsed), want none", trips, ackOnly, idleTicks)
	}
	if got := cc.dataSeen.Load() + sc.dataSeen.Load(); got != 2*trips {
		t.Errorf("counted %d data frames, want %d", got, 2*trips)
	}
	if w := cc.writes.Load() + sc.writes.Load(); w > 2*trips+idleTicks {
		t.Errorf("%d writes for %d round trips, want one per message", w, trips)
	}
}

// TestOneWayStreamAckWindow: a receiver that never sends acks on its own
// once per window, the sender's retransmit buffer stays within a window of
// what the receiver has taken, and it drains completely once the stream
// stops and the idle timer writes the last ack.
func TestOneWayStreamAckWindow(t *testing.T) {
	opts := slowBeat()
	start := time.Now()
	c, s, _, sc := countedPair(t, opts)
	const n, chunk = 10000, 16
	msg := []byte("0123456789abcdef")
	peak := 0
	for sent := 0; sent < n; sent += chunk {
		for i := 0; i < chunk; i++ {
			if err := c.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		recvN(t, s, chunk)
		// Everything sent is delivered; at most one overdue ack is still on
		// its way back.
		waitUntil(t, func() bool { return unackedLen(c) <= ackWindowFrames+chunk })
		if u := unackedLen(c); u > peak {
			peak = u
		}
	}
	if peak > ackWindowFrames+chunk {
		t.Errorf("sender retained %d frames with the receiver caught up, want <= window %d + chunk %d", peak, ackWindowFrames, chunk)
	}
	waitUntil(t, func() bool { return unackedLen(c) == 0 })
	maxAcks := int64((n+ackWindowFrames-1)/ackWindowFrames+1) + int64(time.Since(start)/opts.HeartbeatInterval)
	if got := sc.ackOnly.Load(); got > maxAcks {
		t.Errorf("%d frames one way drew %d standalone acks, want <= %d (one per %d-frame window, one when idle)", n, got, maxAcks, ackWindowFrames)
	}
	if got := sc.acks.Load(); got != sc.ackOnly.Load() {
		t.Errorf("%d acks but %d ack-only writes on a side that sends no data", got, sc.ackOnly.Load())
	}
}

// TestByteWindowAcks: large messages trip the byte window long before the
// frame window.
func TestByteWindowAcks(t *testing.T) {
	c, s, _, _ := countedPair(t, slowBeat())
	big := make([]byte, ackWindowBytes/2)
	for i := 0; i < 2; i++ {
		if err := c.Send(big); err != nil {
			t.Fatal(err)
		}
	}
	recvN(t, s, 2)
	waitUntil(t, func() bool { return unackedLen(c) == 0 })
}

// TestResumeNeedsNoAck: frames delivered but not yet acknowledged when the
// socket drops are not retransmitted — the resume handshake carries the
// receiver's lastRecv, and that, not the ack stream, is what the sender
// resumes from. Every message arrives exactly once.
func TestResumeNeedsNoAck(t *testing.T) {
	opts := fastOpts()
	opts.HeartbeatInterval = 5 * time.Second // no idle ack during the test
	c, s, _ := pair(t, opts)
	const k = ackWindowFrames / 2
	for i := 0; i < k; i++ {
		c.Send([]byte(fmt.Sprintf("m%d", i)))
	}
	for i, msg := range recvN(t, s, k) {
		if msg != fmt.Sprintf("m%d", i) {
			t.Fatalf("msg %d = %q", i, msg)
		}
	}
	if u := unackedLen(c); u != k {
		t.Fatalf("%d of %d delivered frames still unacknowledged before the drop; the test needs all of them", u, k)
	}
	c.dropRaw()
	for i := k; i < 2*k; i++ {
		c.Send([]byte(fmt.Sprintf("m%d", i)))
	}
	for i, msg := range recvN(t, s, k) {
		if msg != fmt.Sprintf("m%d", k+i) {
			t.Fatalf("post-resume msg %d = %q: not exactly-once, in order", k+i, msg)
		}
	}
	if st := c.Stats(); st.Reconnects == 0 {
		t.Error("client Stats().Reconnects = 0: the socket never dropped")
	}
	if st := s.Stats(); st.DupsDropped != 0 {
		t.Errorf("server DupsDropped = %d, want 0: the handshake told the sender what had arrived", st.DupsDropped)
	}
}

// TestIdleAckIsTheHeartbeat: a session that falls silent owing an ack
// writes the ack where the heartbeat would have gone. The sender's
// retention drains and neither side's liveness deadline expires.
func TestIdleAckIsTheHeartbeat(t *testing.T) {
	opts := fastOpts()
	c, s, _ := pair(t, opts)
	for i := 0; i < 3; i++ {
		c.Send([]byte("owed"))
	}
	recvN(t, s, 3)
	time.Sleep(3 * opts.deadline())
	waitUntil(t, func() bool { return unackedLen(c) == 0 })
	if err := c.Send([]byte("still-here")); err != nil {
		t.Fatalf("Send after idle period: %v", err)
	}
	if got := recvN(t, s, 1); got[0] != "still-here" {
		t.Fatalf("got %q", got[0])
	}
	if cr, sr := c.Stats().Reconnects, s.Stats().Reconnects; cr != 0 || sr != 0 {
		t.Errorf("idle session reconnected (client %d, server %d): the liveness deadline fired", cr, sr)
	}
}

// TestControlFrameSizeEnforced: control frames have fixed sizes, checked
// before anything is allocated. A heartbeat-typed frame claiming 64 MiB
// fails the session with an error that says so, and costs no 64 MiB.
func TestControlFrameSizeEnforced(t *testing.T) {
	l, err := Listen("127.0.0.1:0", fastOpts())
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
	writeHandshake(raw, 0, 0)
	readHandshake(raw)
	bogus := binary.BigEndian.AppendUint32(nil, 64<<20)
	raw.Write(append(bogus, fHeartbeat, 0, 0, 0))

	sc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	_, err = sc.Recv()
	if err == nil || err == transport.ErrClosed || !strings.Contains(err.Error(), "H frame claims 67108864 bytes") {
		t.Fatalf("Recv = %v, want a session failure naming the oversized heartbeat", err)
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
		{"ack with a 9-byte body", appendWireFrame(nil, fAck, make([]byte, 9))},
		{"ack with a 7-byte body", appendWireFrame(nil, fAck, make([]byte, 7))},
		{"fin with a body", appendWireFrame(nil, fFin, []byte{1})},
		{"data without a whole seq", appendWireFrame(nil, fData, make([]byte, 7))},
		{"unknown type", appendWireFrame(nil, 'Z', nil)},
		{"zero length", []byte{0, 0, 0, 0, fHeartbeat}},
	} {
		if _, err := readAll(tc.data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
