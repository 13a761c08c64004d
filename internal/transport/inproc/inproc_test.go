package inproc

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/transport"
)

// TestPipeRoundTrip: messages flow both ways, in order, without either
// side blocking the other.
func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	const n = 100
	// Both sides send everything before either receives: Send must not
	// block on the peer.
	for i := 0; i < n; i++ {
		if err := a.Send([]byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := b.Send([]byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		msg, err := b.Recv()
		if err != nil || string(msg) != fmt.Sprintf("a%d", i) {
			t.Fatalf("b.Recv %d = %q, %v", i, msg, err)
		}
		msg, err = a.Recv()
		if err != nil || string(msg) != fmt.Sprintf("b%d", i) {
			t.Fatalf("a.Recv %d = %q, %v", i, msg, err)
		}
	}
}

// TestSenderMayReuseBuffer: Send copies, so the caller can scribble on
// the buffer afterwards.
func TestSenderMayReuseBuffer(t *testing.T) {
	a, b := Pipe()
	buf := []byte("first")
	a.Send(buf)
	copy(buf, "XXXXX")
	msg, err := b.Recv()
	if err != nil || string(msg) != "first" {
		t.Fatalf("Recv = %q, %v, want \"first\"", msg, err)
	}
}

// TestConcurrentSenders: Send is safe from many goroutines; all messages
// arrive exactly once.
func TestConcurrentSenders(t *testing.T) {
	a, b := Pipe()
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Send([]byte{byte(g)})
			}
		}(g)
	}
	counts := make([]int, senders)
	for i := 0; i < senders*per; i++ {
		msg, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		counts[msg[0]]++
	}
	wg.Wait()
	for g, c := range counts {
		if c != per {
			t.Errorf("sender %d: %d messages, want %d", g, c, per)
		}
	}
}

// TestClose: a blocked Recv returns ErrClosed when either side closes.
func TestClose(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	a.Close()
	if err := <-done; err != transport.ErrClosed {
		t.Fatalf("Recv after peer close = %v, want ErrClosed", err)
	}
	if err := a.Send([]byte("x")); err != transport.ErrClosed {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
}

// TestSendOwnedTransfersOwnership: SendOwned must hand the very slice to
// the receiver (no defensive copy), while Send must copy — the pooled
// send path in the live executor depends on this distinction.
func TestSendOwnedTransfersOwnership(t *testing.T) {
	a, b := Pipe()
	owned := []byte{1, 2, 3}
	if err := a.(transport.OwnedSender).SendOwned(owned); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &owned[0] {
		t.Error("SendOwned copied the message; it must transfer ownership")
	}

	copied := []byte{4, 5, 6}
	if err := a.Send(copied); err != nil {
		t.Fatal(err)
	}
	got, err = b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] == &copied[0] {
		t.Error("Send handed the caller's slice to the receiver; it must copy")
	}
}
