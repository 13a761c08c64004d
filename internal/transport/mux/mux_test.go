package mux

import (
	"errors"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/transport/tcp"
	"repro/internal/transport/wire"
)

// pair returns a connected service-side/daemon-side mux over an inproc pipe.
func pair() (*Mux, *Mux) {
	a, b := inproc.Pipe()
	return New(a), New(b)
}

func send(t *testing.T, c transport.Conn, f *wire.Frame) {
	t.Helper()
	enc, err := wire.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(enc); err != nil {
		t.Fatalf("send %s: %v", wire.TypeName(f.Type), err)
	}
}

func recv(t *testing.T, c transport.Conn) wire.Frame {
	t.Helper()
	msg, err := c.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	f, err := wire.Decode(msg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMuxSessionRoundTrip: frames flow both ways over a virtual conn,
// stamped with the session id, with open metadata delivered to Accept.
func TestMuxSessionRoundTrip(t *testing.T) {
	svc, daemon := pair()
	c, err := svc.Open(7, "tenant-a", 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := daemon.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != 7 || s.Tenant != "tenant-a" || s.SlotCap != 3 {
		t.Fatalf("accepted session = %+v", s)
	}
	send(t, c, &wire.Frame{Type: wire.TDispatch, Task: 42, Label: "job"})
	got := recv(t, s.Conn)
	if got.Type != wire.TDispatch || got.Task != 42 || got.Label != "job" || got.Sess != 7 {
		t.Fatalf("daemon side got %+v", got)
	}
	send(t, s.Conn, &wire.Frame{Type: wire.TTaskDone, Task: 42})
	back := recv(t, c)
	if back.Type != wire.TTaskDone || back.Sess != 7 {
		t.Fatalf("service side got %+v", back)
	}
}

// TestMuxSessionIsolation: with two sessions interleaved on one physical
// conn, each virtual conn surfaces only its own frames.
func TestMuxSessionIsolation(t *testing.T) {
	svc, daemon := pair()
	c1, _ := svc.Open(1, "a", 0)
	c2, _ := svc.Open(2, "b", 0)
	s1, _ := daemon.Accept()
	s2, _ := daemon.Accept()
	if s1.ID != 1 || s2.ID != 2 {
		t.Fatalf("accept order: %d then %d", s1.ID, s2.ID)
	}
	for i := 0; i < 10; i++ {
		send(t, c1, &wire.Frame{Type: wire.TDispatch, Task: uint64(100 + i)})
		send(t, c2, &wire.Frame{Type: wire.TDispatch, Task: uint64(200 + i)})
	}
	for i := 0; i < 10; i++ {
		if f := recv(t, s1.Conn); f.Sess != 1 || f.Task != uint64(100+i) {
			t.Fatalf("session 1 frame %d: %+v", i, f)
		}
		if f := recv(t, s2.Conn); f.Sess != 2 || f.Task != uint64(200+i) {
			t.Fatalf("session 2 frame %d: %+v", i, f)
		}
	}
}

// TestMuxSessionClose: closing a virtual conn delivers queued frames
// first (a TBye must survive the close that follows it), then ErrClosed,
// and the peer drops the routing entry so late sends vanish rather than
// leak into a reused id.
func TestMuxSessionClose(t *testing.T) {
	svc, daemon := pair()
	c, _ := svc.Open(1, "a", 0)
	s, _ := daemon.Accept()

	send(t, c, &wire.Frame{Type: wire.TBye})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if f := recv(t, s.Conn); f.Type != wire.TBye {
		t.Fatalf("queued frame after close: %+v", f)
	}
	if _, err := s.Conn.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("recv after close: %v", err)
	}
	if err := c.Send([]byte{1}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	// A frame sent by the daemon for the dead session is dropped, and the
	// physical conn stays healthy for other sessions.
	if err := s.Conn.Send(mustFrame(t, &wire.Frame{Type: wire.TTaskDone})); err == nil {
		// The daemon-side sconn may not have processed the close yet;
		// either an error or a silent drop is acceptable.
		_ = err
	}
	c2, err := svc.Open(2, "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := daemon.Accept()
	if err != nil {
		t.Fatal(err)
	}
	send(t, c2, &wire.Frame{Type: wire.TDispatch, Task: 9})
	if f := recv(t, s2.Conn); f.Task != 9 {
		t.Fatalf("session 2 after session 1 closed: %+v", f)
	}
}

// TestMuxSessionFence: fencing a virtual conn discards frames already
// queued for it and fails subsequent sends with ErrFenced.
func TestMuxSessionFence(t *testing.T) {
	svc, daemon := pair()
	c, _ := svc.Open(1, "a", 0)
	s, _ := daemon.Accept()
	send(t, s.Conn, &wire.Frame{Type: wire.TTaskDone, Task: 1})
	// Let the frame reach the service-side inbox before fencing.
	deadline := time.Now().Add(time.Second)
	for {
		if c.(*sconn).inbox.Len() > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.(transport.Fencer).Fence()
	if _, err := c.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("recv after fence: %v", err)
	}
	if err := c.Send([]byte{1}); !errors.Is(err, ErrFenced) {
		t.Fatalf("send after fence: %v", err)
	}
}

// TestMuxPhysicalDeath: when the physical conn dies, every virtual conn
// and any blocked Accept fail — the signal each resident session's
// recovery path keys on.
func TestMuxPhysicalDeath(t *testing.T) {
	svc, daemon := pair()
	c1, _ := svc.Open(1, "a", 0)
	c2, _ := svc.Open(2, "b", 0)
	s1, _ := daemon.Accept()
	_, _ = daemon.Accept()

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	for i, c := range []transport.Conn{c1, c2, s1.Conn} {
		if _, err := c.Recv(); err == nil {
			t.Fatalf("conn %d: recv succeeded after physical death", i)
		}
	}
	if _, err := daemon.Accept(); err == nil {
		t.Fatal("accept succeeded after physical death")
	}
}

// wrapped hides a conn's delivery hook, as a wrapper that counts or
// taps a conn's traffic does.
type wrapped struct{ transport.Conn }

// TestMuxUnroutableConnFails: a mux over a conn it cannot route fails
// its sessions and Accept with an error instead of panicking.
func TestMuxUnroutableConnFails(t *testing.T) {
	a, b := inproc.Pipe()
	defer b.Close()
	m := New(wrapped{a})
	defer m.Close()
	if _, err := m.Plain().Recv(); err == nil {
		t.Fatal("session 0 recv succeeded on an unroutable conn")
	}
	if _, err := m.Accept(); err == nil {
		t.Fatal("accept succeeded on an unroutable conn")
	}
	if _, err := m.Open(1, "a", 0); err == nil {
		t.Fatal("open succeeded on an unroutable conn")
	}
}

// TestMuxUnacceptedSessionsNeverBlockDelivery: sessions announced faster
// than the host accepts them wait in a queue without bound, so the reader
// that routes them — the tcp reader, or the inproc sender — never blocks,
// and an accepted session's frames keep arriving behind a hundred
// unaccepted ones, on both substrates.
func TestMuxUnacceptedSessionsNeverBlockDelivery(t *testing.T) {
	for _, sub := range []string{"inproc", "tcp"} {
		t.Run(sub, func(t *testing.T) {
			var a, b transport.Conn
			if sub == "inproc" {
				a, b = inproc.Pipe()
			} else {
				l, err := tcp.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				if a, err = tcp.Dial(l.Addr()); err != nil {
					t.Fatal(err)
				}
				if b, err = l.Accept(); err != nil {
					t.Fatal(err)
				}
			}
			svc, daemon := New(a), New(b)
			defer svc.Close()
			defer daemon.Close()
			c, err := svc.Open(1, "a", 0)
			if err != nil {
				t.Fatal(err)
			}
			s, err := daemon.Accept()
			if err != nil {
				t.Fatal(err)
			}
			for id := uint64(2); id <= 101; id++ {
				if _, err := svc.Open(id, "idle", 0); err != nil {
					t.Fatal(err)
				}
			}
			send(t, c, &wire.Frame{Type: wire.TDispatch, Task: 7})
			got := make(chan []byte, 1)
			go func() {
				msg, _ := s.Conn.Recv()
				got <- msg
			}()
			select {
			case msg := <-got:
				if f, err := wire.Decode(msg); err != nil || f.Task != 7 || f.Sess != 1 {
					t.Fatalf("accepted session got %+v, %v", f, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a frame for an accepted session was not delivered behind 100 unaccepted sessions")
			}
			for id := uint64(2); id <= 101; id++ {
				if s, err := daemon.Accept(); err != nil || s.ID != id {
					t.Fatalf("accept %d: session %d, %v", id, s.ID, err)
				}
			}
		})
	}
}

func mustFrame(t *testing.T, f *wire.Frame) []byte {
	t.Helper()
	enc, err := wire.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}
