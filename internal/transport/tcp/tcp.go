// Package tcp is the real-socket transport substrate: length-prefixed
// frames over TCP, one socket per transport.Conn.
//
// A connection lives exactly as long as its socket. Nothing is numbered,
// acknowledged, retransmitted or resumed: any socket error — a reset, an
// end of stream without a fin, the liveness deadline expiring, a
// malformed frame — ends the connection on both sides with that error.
// Recovery belongs to the layer that can make it sound: the live executor
// treats a dead connection as a dead member (fence, sweep, re-execute),
// and the tenant service as a daemon lost to every resident session —
// the path a crash takes.
//
// Liveness uses the same failure-detector parameters as the simulated
// executor (fault.Default*), scaled by LivenessScale into wall-clock
// terms: a writer that has written nothing for an interval writes a
// heartbeat frame, and a reader that hears nothing within the derived
// deadline declares the peer dead.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/transport"
)

// LivenessScale converts the simulator's failure-detector parameters
// (fault.Default*, tuned for virtual time) into wall-clock settings that
// tolerate real scheduler and network jitter.
const LivenessScale = 50

// maxFrame bounds a single frame so a corrupt length prefix cannot make
// the reader allocate unboundedly. The sender enforces the same bound in
// Send/SendOwned — an oversized message must fail fast at its origin with
// a descriptive error, not kill the peer's connection as "invalid frame
// length". An atomic (not a const) so tests can lower the limit without
// shipping 256 MiB frames — or racing live connection goroutines.
var maxFrame = func() *atomic.Uint32 {
	var v atomic.Uint32
	v.Store(1 << 28)
	return &v
}()

// maxBatch caps the bytes the writer packs into one raw Write. A full
// batch flushes mid-collection, so a burst of large frames costs several
// writes rather than unbounded buffering before the first byte moves.
const maxBatch = 256 << 10

// readBufSize is the reader's buffer: one socket read surfaces many
// batched frames.
const readBufSize = 64 << 10

// readers holds the buffered readers of connections that have ended, so a
// runtime that dials and drops connections op after op does not allocate
// readBufSize for each.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readBufSize) }}

// handshakeTimeout bounds the dial and the handshake exchange.
const handshakeTimeout = 5 * time.Second

// Frame type bytes on the wire (first byte of every frame body).
const (
	fData      = 'D' // application message
	fHeartbeat = 'H' // empty; proves liveness on an idle socket
	fFin       = 'F' // empty; orderly shutdown
)

// hsVersion is the handshake's version byte. Version 1 also carried a
// session id and a resume point; version 2 is the magic and the version
// alone, sent by each side.
const hsVersion = 2

var handshake = [4]byte{'J', 'T', 'P', hsVersion}

// cadence is a connection's liveness timing: how long the writer stays
// silent before it sends a heartbeat, and how long the reader waits for
// any byte before it declares the peer dead. Dial and Listen use the
// fault.Default* cadence; tests pass a faster one.
type cadence struct {
	interval, deadline time.Duration
}

func defaultCadence() cadence {
	c := fault.DefaultCadence().Scaled(LivenessScale)
	return cadence{interval: c.HeartbeatInterval, deadline: c.Deadline()}
}

// ErrFenced is the terminal error of a fenced connection: the application
// declared the peer dead, and whatever it still sends is discarded rather
// than delivered.
var ErrFenced = errors.New("tcp: connection fenced (peer declared dead)")

// conn implements transport.Conn over one raw socket.
type conn struct {
	raw    net.Conn
	cad    cadence
	notify chan struct{} // cap 1; poked when there is something to write
	dead   chan struct{} // closed with the socket
	once   sync.Once

	heartbeats atomic.Uint64

	recvQ *transport.Queue // the reader delivers here: to Recv, or to a router

	mu       sync.Mutex
	sendQ    [][]byte // queued for the writer, in order; owned buffers
	finDue   bool     // Close: the writer flushes, sends fin, closes the socket
	fenceDue bool     // Fence: the writer flushes and closes the socket
	closed   bool     // local Close or terminal failure: no more sends
	peerFin  bool
	err      error // terminal error, set once
}

// start wraps a socket whose handshake is done and starts its writer and
// reader.
func start(raw net.Conn, cad cadence) *conn {
	raw.SetDeadline(time.Time{})
	if tc, ok := raw.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &conn{raw: raw, cad: cad, notify: make(chan struct{}, 1), dead: make(chan struct{}), recvQ: transport.NewQueue()}
	go c.writer()
	go c.reader()
	return c
}

func (c *conn) kill() {
	c.once.Do(func() {
		close(c.dead)
		c.raw.Close()
	})
}

func (c *conn) poke() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// Send implements transport.Conn. It never blocks on the socket: frames
// queue in the conn and its writer goroutine drains them, so both
// endpoints may send concurrently without deadlock.
func (c *conn) Send(msg []byte) error {
	if err := checkFrameSize(len(msg)); err != nil {
		return err
	}
	return c.enqueue(append(transport.GetBuf(), msg...))
}

// SendOwned implements transport.OwnedSender: the conn queues msg itself
// instead of a copy, and the writer returns it to the pool once it is in
// a batch. The caller must not reuse msg.
func (c *conn) SendOwned(msg []byte) error {
	if err := checkFrameSize(len(msg)); err != nil {
		return err
	}
	return c.enqueue(msg)
}

// checkFrameSize is the sender-side maxFrame guard: the wire frame is
// type byte + msg, and the receiver rejects length prefixes above
// maxFrame, so an oversized message must be refused here — at the origin,
// with a diagnosable error — rather than poisoning the peer.
func checkFrameSize(n int) error {
	if limit := maxFrame.Load(); uint64(1+n) > uint64(limit) {
		return fmt.Errorf("tcp: message of %d bytes exceeds the frame limit (%d-byte frame, max %d)", n, 1+n, limit)
	}
	return nil
}

func (c *conn) enqueue(msg []byte) error {
	c.mu.Lock()
	if c.closed {
		err := c.terminalErrLocked()
		c.mu.Unlock()
		transport.PutBuf(msg)
		return err
	}
	c.sendQ = append(c.sendQ, msg)
	c.mu.Unlock()
	c.poke()
	return nil
}

// Recv implements transport.Conn. Messages already delivered drain even
// after a close or failure; then the terminal error is returned.
func (c *conn) Recv() ([]byte, error) { return c.recvQ.Get() }

// Route implements transport.Routable: the reader hands every data frame
// to r instead of queuing it, what it queued before the call first.
func (c *conn) Route(r transport.Router) { c.recvQ.Route(r) }

// end refuses further sends and closes recvQ with the terminal error (the
// first failure; a fin is none). A fence drops what recvQ holds and has
// the writer close the socket after the frames already queued.
func (c *conn) end(err error, fence bool) {
	c.mu.Lock()
	if c.err == nil && !c.peerFin {
		c.err = err
	}
	c.closed = true
	c.fenceDue = c.fenceDue || fence
	err = c.terminalErrLocked()
	c.mu.Unlock()
	c.recvQ.CloseWith(err, fence)
}

func (c *conn) terminalErrLocked() error {
	if c.err != nil {
		return c.err
	}
	return transport.ErrClosed
}

// Close implements transport.Conn: best-effort flush and fin, then
// teardown.
func (c *conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.finDue = true
	c.closed = true
	c.mu.Unlock()
	c.recvQ.Close()
	c.poke() // the writer flushes the queue, sends fin, and exits
	select {
	case <-c.dead:
	case <-time.After(c.cad.interval):
		c.kill()
	}
	return nil
}

// Stats implements transport.Statser.
func (c *conn) Stats() transport.Stats {
	return transport.Stats{Heartbeats: c.heartbeats.Load()}
}

// Fence implements transport.Fencer: drop what Recv has not taken, deliver
// and accept nothing more, and have the writer close the socket once it
// has written what was queued before — an eviction notice a peer that is
// in fact alive must read, to dial again as a new member — within one
// heartbeat interval.
func (c *conn) Fence() {
	c.end(ErrFenced, true)
	c.raw.SetWriteDeadline(time.Now().Add(c.cad.interval))
	c.poke()
}

// fail ends the connection with err, dropping the frames queued to send.
func (c *conn) fail(err error) {
	c.end(err, false)
	c.mu.Lock()
	for _, msg := range c.sendQ {
		transport.PutBuf(msg)
	}
	clear(c.sendQ)
	c.sendQ = c.sendQ[:0]
	c.mu.Unlock()
	c.kill()
}

// writer drains the send queue onto the socket. Everything collected in
// one wakeup is packed into one buffer and hits the socket as one Write
// (flushing early only past maxBatch): the flush boundary is the queue
// going momentarily empty, so senders that burst many small frames pay
// one syscall for the burst. No timer sits between a frame and its write;
// a heartbeat goes out only when the socket has been idle for an
// interval. Each message's buffer goes back to the pool once it is
// copied into the batch: nothing is kept for retransmission. The batch is
// a pooled buffer too, grown as batches need and given back on exit.
func (c *conn) writer() {
	hb := time.NewTimer(c.cad.interval)
	defer hb.Stop()
	lastWrite := time.Now()
	batch := transport.GetBuf()
	defer func() { transport.PutBuf(batch) }()
	var frames [][]byte
	idle := false // the idle timer fired: the peer must hear something
	for {
		c.mu.Lock()
		// The two queue arrays alternate between conn and writer. Once
		// Close or Fence has been called no new sends are accepted, so this
		// batch drains the queue and the socket can close after it.
		frames, c.sendQ = c.sendQ, frames
		fin, last := c.finDue, c.finDue || c.fenceDue
		c.mu.Unlock()

		wrote := false
		var err error
		batch = batch[:0]
		flush := func() {
			if err == nil && len(batch) > 0 {
				_, err = c.raw.Write(batch)
				wrote = true
			}
			batch = batch[:0]
		}
		for _, msg := range frames {
			if err == nil {
				batch = appendWireFrame(batch, fData, msg)
				if len(batch) >= maxBatch {
					flush()
				}
			}
			transport.PutBuf(msg)
		}
		clear(frames)
		frames = frames[:0]
		if err == nil && last {
			if fin {
				batch = appendWireFrame(batch, fFin, nil)
			}
			flush() // best-effort
			c.kill()
			return
		}
		heartbeat := idle && len(batch) == 0
		if heartbeat {
			batch = appendWireFrame(batch, fHeartbeat, nil)
		}
		flush()
		if err != nil {
			c.fail(fmt.Errorf("tcp: write: %w", err))
			return
		}
		if heartbeat {
			c.heartbeats.Add(1)
		}
		if wrote {
			lastWrite = time.Now()
		}

		idle = false
		select {
		case <-c.notify:
		case <-hb.C:
			// The timer is not touched per write: when it fires, either the
			// socket really has been idle for an interval, or it sleeps out
			// the remainder.
			wait := c.cad.interval - time.Since(lastWrite)
			if idle = wait <= 0; idle {
				wait = c.cad.interval
			}
			hb.Reset(wait)
		case <-c.dead:
			return
		}
	}
}

// deadlineReader arms the liveness deadline before each socket read. The
// buffered reader above it calls Read only when it has run dry, so a train
// of frames that arrived in one segment costs one deadline, and the peer is
// declared dead exactly when a read waits that long for any byte at all.
type deadlineReader struct {
	raw      net.Conn
	deadline time.Duration
}

func (r deadlineReader) Read(p []byte) (int, error) {
	r.raw.SetReadDeadline(time.Now().Add(r.deadline))
	return r.raw.Read(p)
}

// reader consumes frames from the socket. Any read error — the liveness
// deadline expiring, the peer vanishing, a malformed frame — ends the
// connection. The buffered reader is the receive half of batching: one
// socket read surfaces a whole train of small frames, which then parse
// without further syscalls. It is borrowed from readers for the life of
// the connection.
func (c *conn) reader() {
	br := readers.Get().(*bufio.Reader)
	br.Reset(deadlineReader{c.raw, c.cad.deadline})
	defer func() {
		br.Reset(nil)
		readers.Put(br)
	}()
	for {
		typ, msg, err := readFrame(br)
		if err != nil {
			select {
			case <-c.dead: // local teardown, not a failure
			default:
				c.fail(fmt.Errorf("tcp: read: %w", err))
			}
			return
		}
		switch typ {
		case fData:
			if c.recvQ.Put(msg) != nil {
				transport.PutBuf(msg) // fenced, or closed
			}
		case fHeartbeat:
			// Receipt alone resets the liveness deadline.
		case fFin:
			c.mu.Lock()
			c.peerFin = true
			c.mu.Unlock()
			c.end(nil, false)
			c.kill()
			return
		}
	}
}

// appendWireFrame packs one length-prefixed frame onto dst: 4-byte
// big-endian length of (type byte + body), then the type byte and body.
func appendWireFrame(dst []byte, typ byte, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+len(body)))
	dst = append(dst, typ)
	return append(dst, body...)
}

// errBadFrame marks a frame the stream cannot contain: the peer is not
// speaking this protocol, or the bytes are corrupt.
var errBadFrame = errors.New("malformed frame")

func badFrame(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errBadFrame}, args...)...)
}

// readFrame reads one length-prefixed frame. The header — length and
// type — is parsed in place in the reader's buffer and checked before
// anything is allocated: a control frame has no body, so only a data
// frame's claimed length is ever believed, up to maxFrame, and its
// message is then read straight into a buffer from transport.GetBuf,
// which the receiver owns and gives back with PutBuf. A peer that dies
// mid-frame surfaces as an io error here — the partial frame is never
// delivered, and its buffer goes back to the pool.
func readFrame(br *bufio.Reader) (typ byte, msg []byte, err error) {
	hdr, err := br.Peek(5)
	if err != nil {
		if len(hdr) > 0 {
			err = midFrame(err)
		}
		return 0, nil, err
	}
	n, typ := binary.BigEndian.Uint32(hdr), hdr[4]
	switch typ {
	case fData:
		if n < 1 || n > maxFrame.Load() {
			return 0, nil, badFrame("invalid frame length %d", n)
		}
	case fHeartbeat, fFin:
		if n != 1 {
			return 0, nil, badFrame("%c frame claims %d bytes, want 1", typ, n)
		}
	default:
		return 0, nil, badFrame("unknown frame type 0x%02x (claiming %d bytes)", typ, n)
	}
	br.Discard(5)
	if typ != fData {
		return typ, nil, nil
	}
	msg = slices.Grow(transport.GetBuf(), int(n-1))[:n-1]
	if _, err := io.ReadFull(br, msg); err != nil {
		transport.PutBuf(msg)
		return 0, nil, midFrame(err)
	}
	return typ, msg, nil
}

// midFrame is a read error inside a frame: there, end of stream is never
// a clean one.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func writeHandshake(c net.Conn) error {
	_, err := c.Write(handshake[:])
	return err
}

func readHandshake(c net.Conn) error {
	var buf [len(handshake)]byte
	if _, err := io.ReadFull(c, buf[:]); err != nil {
		return err
	}
	if [3]byte(buf[:3]) != [3]byte(handshake[:3]) {
		return errors.New("tcp: bad handshake magic")
	}
	if buf[3] != hsVersion {
		return fmt.Errorf("tcp: handshake version mismatch: got %d, want %d", buf[3], hsVersion)
	}
	return nil
}

// Dial opens a connection to a Listener at addr. It returns once the
// listener has answered the handshake, whether or not anyone has called
// Accept yet.
func Dial(addr string) (transport.Conn, error) {
	c, err := dial(addr, defaultCadence())
	if err != nil {
		return nil, err
	}
	return c, nil
}

func dial(addr string, cad cadence) (*conn, error) {
	raw, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	raw.SetDeadline(time.Now().Add(handshakeTimeout))
	if err = writeHandshake(raw); err == nil {
		err = readHandshake(raw)
	}
	if err != nil {
		raw.Close()
		return nil, err
	}
	return start(raw, cad), nil
}

// Listener accepts tcp connections. Each answered handshake surfaces via
// Accept as a new connection.
type Listener struct {
	nl      net.Listener
	cad     cadence
	backlog chan *conn
	done    chan struct{}
	once    sync.Once
	// backlogWaits counts handshakes that found the backlog channel full
	// and had to block until Accept drained it. The channel send always
	// blocks rather than dropping the connection — a burst of elastic
	// dials beyond the backlog must never be silently lost — so this
	// counter is the observable symptom of an undersized backlog.
	backlogWaits atomic.Uint64
}

// BacklogWaits reports how many inbound connections found the accept
// backlog full and blocked waiting for Accept. Nonzero means dial bursts
// exceeded the backlog capacity; no connection was dropped.
func (l *Listener) BacklogWaits() uint64 { return l.backlogWaits.Load() }

// Listen starts a listener on addr (e.g. "127.0.0.1:0").
func Listen(addr string) (*Listener, error) {
	return listen(addr, defaultCadence())
}

func listen(addr string, cad cadence) (*Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{
		nl:      nl,
		cad:     cad,
		backlog: make(chan *conn, 64),
		done:    make(chan struct{}),
	}
	go l.acceptLoop()
	return l, nil
}

func (l *Listener) acceptLoop() {
	for {
		raw, err := l.nl.Accept()
		if err != nil {
			return // listener closed
		}
		go l.handshake(raw)
	}
}

// handshake answers one inbound socket and hands the connection to
// Accept. A peer speaking another version is dropped without a reply.
func (l *Listener) handshake(raw net.Conn) {
	raw.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := readHandshake(raw); err != nil {
		raw.Close()
		return
	}
	select {
	case <-l.done:
		raw.Close()
		return
	default:
	}
	if err := writeHandshake(raw); err != nil {
		raw.Close()
		return
	}
	c := start(raw, l.cad)
	select {
	case l.backlog <- c:
	default:
		// Backlog full: block (never drop) and surface the pressure.
		l.backlogWaits.Add(1)
		select {
		case l.backlog <- c:
		case <-l.done:
			c.Close()
		}
	}
}

// Accept returns the next inbound connection.
func (l *Listener) Accept() (transport.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, transport.ErrClosed
	}
}

// Addr returns the address workers dial ("host:port").
func (l *Listener) Addr() string { return l.nl.Addr().String() }

// Close stops accepting new connections. Existing connections live on
// until closed individually.
func (l *Listener) Close() error {
	var err error
	l.once.Do(func() {
		close(l.done)
		err = l.nl.Close()
	})
	return err
}

var (
	_ transport.Conn        = (*conn)(nil)
	_ transport.Statser     = (*conn)(nil)
	_ transport.Fencer      = (*conn)(nil)
	_ transport.OwnedSender = (*conn)(nil)
	_ transport.Routable    = (*conn)(nil)
)
