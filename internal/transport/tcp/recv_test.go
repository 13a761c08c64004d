package tcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestRecvCycleAllocatesNothing: once the pools are warm, a 200-byte frame
// sent, received and given back costs no allocation on either end: the
// sender's copy, the writer's batch, the reader's buffer and the frame the
// reader fills all come from, and go back to, the pool. The race detector
// makes sync.Pool drop items at random, so the count is only exact without
// it.
func TestRecvCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, s, _ := pair(t)
	msg := bytes.Repeat([]byte{0xA5}, 200)
	cycle := func() {
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := s.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(msg) {
			t.Fatalf("received %d bytes, want %d", len(got), len(msg))
		}
		transport.PutBuf(got)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("%.2f allocs per Send/Recv/PutBuf cycle, want 0", allocs)
	}
}

// TestReadFrameReusesPooledBuffer: a frame read into a buffer that held a
// larger one comes back at exactly its own length and bytes, however much
// of the earlier frame the buffer still holds past it.
func TestReadFrameReusesPooledBuffer(t *testing.T) {
	big := bytes.Repeat([]byte{0xEE}, 4<<10)
	small := []byte("7 bytes")
	stream := appendWireFrame(appendWireFrame(nil, fData, big), fData, small)
	br := bufio.NewReaderSize(bytes.NewReader(stream), readBufSize)
	_, first, err := readFrame(br)
	if err != nil || !bytes.Equal(first, big) {
		t.Fatalf("first frame: %d bytes, %v", len(first), err)
	}
	transport.PutBuf(first)
	_, second, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second, small) {
		t.Fatalf("second frame = %q (%d bytes), want %q", second, len(second), small)
	}
}

// TestMidFrameDeathOnReusedBuffers: a peer that sends whole frames, each
// received and given back to the pool, and then dies inside a frame
// still has only its whole frames delivered, each with its own bytes,
// however the pool has recycled the buffers under them.
func TestMidFrameDeathOnReusedBuffers(t *testing.T) {
	l, err := listen("127.0.0.1:0", fast)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	whole := [][]byte{bytes.Repeat([]byte{1}, 3000), []byte("two"), bytes.Repeat([]byte{3}, 900)}
	go func() {
		raw, err := net.Dial("tcp", l.Addr())
		if err != nil {
			return
		}
		writeHandshake(raw)
		readHandshake(raw)
		var batch []byte
		for _, m := range whole {
			batch = appendWireFrame(batch, fData, m)
		}
		// A frame that promises 2,000 bytes and brings 1,200 of them.
		batch = binary.BigEndian.AppendUint32(batch, 2000)
		batch = append(batch, fData)
		batch = append(batch, bytes.Repeat([]byte{4}, 1200)...)
		raw.Write(batch)
		time.Sleep(50 * time.Millisecond)
		raw.Close()
	}()

	sc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range whole {
		got, err := sc.Recv()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes, %v; want its %d bytes", i, len(got), err, len(want))
		}
		transport.PutBuf(got)
	}
	if msg, err := sc.Recv(); err == nil || err == transport.ErrClosed {
		t.Fatalf("Recv after a torn frame = (%d bytes, %v), want the read error that tore it", len(msg), err)
	}
}
