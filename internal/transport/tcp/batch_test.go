package tcp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/transport"
)

// TestSendRejectsOversized: the sender enforces maxFrame, so an oversized
// message fails fast at its origin with a descriptive error instead of
// reaching the peer's reader and killing the session as "invalid frame
// length". Regression test: writeFrame historically never checked the
// bound the reader enforces. The limit is lowered for the test — the real
// bound is 256 MiB.
func TestSendRejectsOversized(t *testing.T) {
	old := maxFrame.Load()
	maxFrame.Store(64)
	defer maxFrame.Store(old)

	c, s, _ := pair(t)

	// 1 type byte + msg must fit maxFrame: 63 is the largest message that
	// does.
	atLimit := make([]byte, 63)
	if err := c.Send(atLimit); err != nil {
		t.Fatalf("Send at the frame limit: %v", err)
	}
	if got := recvN(t, s, 1); len(got[0]) != 63 {
		t.Fatalf("at-limit message arrived with %d bytes", len(got[0]))
	}

	over := make([]byte, 64)
	if err := c.Send(over); err == nil {
		t.Fatal("Send over the frame limit succeeded")
	}
	if err := c.SendOwned(append([]byte(nil), over...)); err == nil {
		t.Fatal("SendOwned over the frame limit succeeded")
	}

	// The refused sends must not have poisoned the connection: ordinary
	// traffic still flows.
	if err := c.Send([]byte("after")); err != nil {
		t.Fatalf("Send after a refused message: %v", err)
	}
	if got := recvN(t, s, 1); got[0] != "after" {
		t.Fatalf("post-refusal message = %q", got[0])
	}
}

// TestBacklogBurst drives more concurrent dials than the listener's
// 64-slot accept backlog holds. No connection may be dropped — each dial
// must eventually surface via Accept and carry traffic — and the
// BacklogWaits counter must record that the backlog overflowed.
func TestBacklogBurst(t *testing.T) {
	const dials = 80 // backlog is 64
	l, err := listen("127.0.0.1:0", fast)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	errs := make(chan error, dials)
	// Dialers hang up only once every greeting has been read: Close gives
	// the queued greeting one heartbeat interval to leave, which a loaded
	// machine does not always grant.
	greeted := make(chan struct{})
	release := sync.OnceFunc(func() { close(greeted) })
	defer release()
	for i := 0; i < dials; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := dial(l.Addr(), fast)
			if err != nil {
				errs <- fmt.Errorf("dial %d: %w", i, err)
				return
			}
			errs <- c.Send([]byte(fmt.Sprintf("hello-%d", i)))
			<-greeted
			c.Close()
		}(i)
	}

	// Accept lags the dial burst on purpose: it starts only once the
	// backlog has overflowed.
	waitUntil(t, func() bool { return l.BacklogWaits() > 0 })
	seen := map[string]bool{}
	for i := 0; i < dials; i++ {
		sc, err := l.Accept()
		if err != nil {
			t.Fatalf("Accept %d: %v", i, err)
		}
		msg, err := sc.Recv()
		if err != nil {
			t.Fatalf("Recv on accepted connection %d: %v", i, err)
		}
		seen[string(msg)] = true
		sc.Close()
	}
	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if len(seen) != dials {
		t.Errorf("delivered %d distinct greetings, want %d", len(seen), dials)
	}
	if l.BacklogWaits() == 0 {
		t.Error("BacklogWaits() = 0 after a burst past the backlog capacity")
	}
}

// TestAppendDataFrameAllocs pins the batching writer's per-frame packing
// at zero allocations once the batch buffer has grown: the hot send path
// must not feed the allocator per message.
func TestAppendDataFrameAllocs(t *testing.T) {
	msg := []byte("0123456789abcdef")
	batch := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		batch = batch[:0]
		for i := 0; i < 16; i++ {
			batch = appendWireFrame(batch, fData, msg)
		}
	})
	if allocs != 0 {
		t.Errorf("appendWireFrame into a reused batch: %.1f allocs, want 0", allocs)
	}
}

// frame is one parsed wire frame, as readFrame reports it.
type frame struct {
	typ byte
	msg []byte // fData only
}

// pack re-encodes the frame the way the writer would have.
func (f frame) pack(dst []byte) []byte { return appendWireFrame(dst, f.typ, f.msg) }

// writeFrame writes one frame as its own Write call.
func writeFrame(w io.Writer, typ byte, body []byte) error {
	_, err := w.Write(appendWireFrame(nil, typ, body))
	return err
}

// readAll parses a byte stream as a train of wire frames, the way the
// connection's reader consumes one batched Write from the peer. With
// recycle, each frame is copied out and its buffer given back to the pool
// at once, as a receiver does, so the frames after it are read into reused
// buffers.
func readAll(data []byte, recycle bool) ([]frame, error) {
	br := bufio.NewReaderSize(bytes.NewReader(data), readBufSize)
	var frames []frame
	for {
		typ, msg, err := readFrame(br)
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return frames, err
		}
		if recycle && msg != nil {
			own := append([]byte(nil), msg...)
			transport.PutBuf(msg)
			msg = own
		}
		frames = append(frames, frame{typ, msg})
	}
}

// TestReadBatchedFrames: a single buffer packed by the batching writer
// (a data train, then a heartbeat) parses back frame by frame.
func TestReadBatchedFrames(t *testing.T) {
	var batch []byte
	for i := 1; i <= 5; i++ {
		batch = appendWireFrame(batch, fData, []byte(fmt.Sprintf("m%d", i)))
	}
	batch = appendWireFrame(batch, fHeartbeat, nil)

	frames, err := readAll(batch, false)
	if err != nil {
		t.Fatal(err)
	}
	var types []byte
	for _, f := range frames {
		types = append(types, f.typ)
	}
	want := []byte{fData, fData, fData, fData, fData, fHeartbeat}
	if !bytes.Equal(types, want) {
		t.Fatalf("frame types = %q, want %q", types, want)
	}
	for i := 0; i < 5; i++ {
		if got := string(frames[i].msg); got != fmt.Sprintf("m%d", i+1) {
			t.Errorf("data frame %d: msg = %q", i+1, got)
		}
	}
}

// FuzzReadFrames feeds arbitrary byte streams to the frame reader the
// way a batched Write arrives: many frames in one buffer. The reader
// must never panic, and any stream it fully accepts must re-pack to the
// identical bytes. Seeds cover the shapes the batching writer produces.
func FuzzReadFrames(f *testing.F) { fuzzReadFrames(f, false) }

// FuzzReadFramesRecycled is FuzzReadFrames with every frame given back to
// the pool once copied out, so each later frame is read into a buffer that
// held an earlier one.
func FuzzReadFramesRecycled(f *testing.F) { fuzzReadFrames(f, true) }

func fuzzReadFrames(f *testing.F, recycle bool) {
	// Single frames.
	f.Add(appendWireFrame(nil, fHeartbeat, nil))
	f.Add(appendWireFrame(nil, fFin, nil))
	f.Add(appendWireFrame(nil, fData, []byte("solo")))
	f.Add(appendWireFrame(nil, fData, nil))
	// A full batch: data train, fin — the writer's flush shape.
	var batch []byte
	for i := 1; i <= 3; i++ {
		batch = appendWireFrame(batch, fData, []byte{byte(i), 0xEE})
	}
	batch = appendWireFrame(batch, fFin, nil)
	f.Add(batch)
	// Corruption shapes: truncated mid-frame, zero length, huge length.
	f.Add(batch[:len(batch)-3])
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, fData})
	// A long frame, then short ones that land in its recycled buffer.
	long := appendWireFrame(nil, fData, bytes.Repeat([]byte{0xAB}, 600))
	long = appendWireFrame(long, fData, []byte{1, 2, 3})
	f.Add(appendWireFrame(long, fData, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := readAll(data, recycle)
		if err != nil {
			return // rejected or truncated streams just must not panic
		}
		var re []byte
		for _, f := range frames {
			re = f.pack(re)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted stream is not canonical:\n in  %x\n out %x", data, re)
		}
	})
}
