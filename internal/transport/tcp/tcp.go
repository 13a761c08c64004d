// Package tcp is the real-socket transport substrate: length-prefixed
// frames over TCP with session-level reliability.
//
// A transport.Conn here is a *session*, not a socket.  The session
// survives the raw connection: every application message gets a sequence
// number, the sender keeps it until the peer's cumulative ack covers it,
// and when the socket dies the dialing side reconnects with exponential
// backoff and presents its session id.  The resume handshake exchanges
// each side's last-received sequence number, so the sender retransmits
// exactly the suffix the peer has not seen and delivery resumes at the
// next whole message — a frame that died in transit is re-sent, a frame
// that was delivered but whose ack was lost is re-sent and then dropped
// by the receiver's sequence-number filter.  That reproduces, on real
// sockets, the once-per-message contract of the simulated fault.Network.
//
// Acks ride data. The cumulative ack goes out in any write the writer
// makes anyway; it is written on its own only once ackWindowFrames
// messages or ackWindowBytes bytes have arrived unacknowledged, and on the
// idle timer. So request/reply traffic never pays a write for an ack, a
// sender's retention is bounded by the window (plus what is in flight)
// and drains to zero within one idle interval, and nothing about
// exactly-once delivery depends on the ack stream at all: what is
// retransmitted after a reconnect is decided by the handshake's lastRecv.
//
// Liveness uses the same failure-detector parameters as the simulated
// executor (fault.Default*), scaled by LivenessScale into wall-clock
// terms: a writer that has written nothing for an interval writes its
// pending ack, or a heartbeat frame if it owes none, and a receiver that
// hears nothing within the derived deadline declares the socket dead
// (triggering reconnect on the dialing side, a resume wait on the
// listening side).
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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
// a descriptive error, not kill the peer's session as "invalid frame
// length". An atomic (not a const) so tests can lower the limit without
// shipping 256 MiB frames — or racing live session goroutines.
var maxFrame = func() *atomic.Uint32 {
	var v atomic.Uint32
	v.Store(1 << 28)
	return &v
}()

// maxBatch caps the bytes the writer packs into one raw Write. A full
// batch flushes mid-collection, so a burst of large frames costs several
// writes rather than unbounded buffering before the first byte moves.
const maxBatch = 256 << 10

// ackWindowFrames and ackWindowBytes bound what a receiver lets arrive
// before it writes an ack of its own instead of waiting for a write to
// carry one: the sender's retransmit buffer holds at most this much
// beyond what is in flight. Large enough that a one-way stream costs one
// small write per window, small enough that the retained frames stay a
// fraction of one batch.
const (
	ackWindowFrames = 32
	ackWindowBytes  = 128 << 10
)

// readBufSize is the reader's buffer: one socket read surfaces many
// batched frames.
const readBufSize = 64 << 10

// Frame type bytes on the wire (first byte of every frame body).
const (
	fData      = 'D' // 8-byte seq + application message
	fAck       = 'A' // exactly 8 bytes: cumulative last-received seq
	fHeartbeat = 'H' // empty; proves liveness on an idle channel that owes no ack
	fFin       = 'F' // empty; orderly session shutdown
)

// handshake layout: "JTP" magic, 1 version byte, 8-byte session id
// (0 = new session), 8-byte last-received sequence number.
const (
	hsLen     = 4 + 8 + 8
	hsVersion = 1
)

var hsMagic = [3]byte{'J', 'T', 'P'}

// Options tunes a session. The zero value takes every default.
type Options struct {
	// HeartbeatInterval is the idle-channel heartbeat period
	// (default fault.DefaultHeartbeatInterval × LivenessScale).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout seeds the liveness deadline: a peer silent for
	// HeartbeatInterval + HeartbeatTimeout×2^HeartbeatRetries is declared
	// dead (default fault.DefaultHeartbeatTimeout × LivenessScale).
	HeartbeatTimeout time.Duration
	// HeartbeatRetries is the detector's miss budget and also the number
	// of redial attempts after the first reconnect failure
	// (default fault.DefaultHeartbeatRetries).
	HeartbeatRetries int
	// RetryBackoff is the initial redial delay, doubling per attempt
	// (default fault.DefaultRetryBackoff × LivenessScale).
	RetryBackoff time.Duration
	// DialTimeout bounds each raw dial attempt (default 5s).
	DialTimeout time.Duration
	// SessionTimeout is how long the listening side keeps a disconnected
	// session alive waiting for a resume (default 2× the liveness
	// deadline).
	SessionTimeout time.Duration
}

func (o Options) withDefaults() Options {
	cad := fault.DefaultCadence().Scaled(LivenessScale)
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = cad.HeartbeatInterval
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = cad.HeartbeatTimeout
	}
	if o.HeartbeatRetries <= 0 {
		o.HeartbeatRetries = cad.HeartbeatRetries
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = cad.RetryBackoff
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.SessionTimeout <= 0 {
		o.SessionTimeout = 2 * o.deadline()
	}
	return o
}

// deadline is how long a silent peer stays presumed-live. The formula is
// fault.Cadence.Deadline applied to this session's (scaled) cadence.
func (o Options) deadline() time.Duration {
	return fault.Cadence{
		HeartbeatInterval: o.HeartbeatInterval,
		HeartbeatTimeout:  o.HeartbeatTimeout,
		HeartbeatRetries:  o.HeartbeatRetries,
	}.Deadline()
}

// ErrFenced is the terminal error of a fenced session: the peer holding
// the other end has been declared dead by the application and its late
// frames are discarded rather than applied.
var ErrFenced = errors.New("tcp: session fenced (peer declared dead)")

// outFrame is one unacknowledged application message.
type outFrame struct {
	seq  uint64
	data []byte
	sent bool // written to some raw conn at least once
}

// link is one raw-socket attachment of a session; a session goes through
// a new link per reconnect.
type link struct {
	raw    net.Conn
	notify chan struct{} // cap 1; poked when there is something to write
	dead   chan struct{}
	once   sync.Once
}

func (l *link) kill() {
	l.once.Do(func() {
		close(l.dead)
		l.raw.Close()
	})
}

func (l *link) poke() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// session implements transport.Conn over a sequence of raw sockets.
type session struct {
	opts     Options
	id       uint64
	dialAddr string    // non-empty on the dialing side; "" on the listener side
	lst      *Listener // listener that owns this session; nil on the dialing side

	mu         sync.Mutex
	recvCond   *sync.Cond
	cur        *link
	sendQ      []*outFrame // queued for the current link, in seq order
	unacked    []*outFrame // sent or queued, not yet covered by a peer ack
	nextSeq    uint64      // next sequence number to assign (first message is 1)
	lastRecv   uint64      // highest in-order seq received
	ackSent    uint64      // highest lastRecv written to the peer as an ack
	ackBytes   int         // message bytes received since that ack
	recvQ      transport.FIFO[[]byte]
	finDue     bool
	closed     bool // local Close or terminal failure
	fenced     bool // Fence was called: drop (never deliver) late data frames
	peerFin    bool
	err        error // terminal error, set once
	redialing  bool
	deathTimer *time.Timer // listener side: session expiry while detached
	stats      transport.Stats

	// test hooks (white-box failure-path tests)
	ignoreAcks bool // sender never prunes unacked → full retransmit on resume
}

func newSession(opts Options, id uint64, dialAddr string) *session {
	s := &session{opts: opts, id: id, dialAddr: dialAddr, nextSeq: 1}
	s.recvCond = sync.NewCond(&s.mu)
	return s
}

// Send implements transport.Conn. It never blocks on the socket: frames
// queue in the session and a per-link writer goroutine drains them, so
// both endpoints may send concurrently without deadlock.
func (s *session) Send(msg []byte) error {
	if err := checkFrameSize(len(msg)); err != nil {
		return err
	}
	return s.enqueue(&outFrame{data: append([]byte(nil), msg...)})
}

// SendOwned implements transport.OwnedSender: the session takes msg as
// its retransmit copy directly instead of duplicating it (it must retain
// the bytes until the peer's ack anyway). The caller must not reuse msg.
func (s *session) SendOwned(msg []byte) error {
	if err := checkFrameSize(len(msg)); err != nil {
		return err
	}
	return s.enqueue(&outFrame{data: msg})
}

// checkFrameSize is the sender-side maxFrame guard: the wire frame is
// type byte + 8-byte seq + msg, and the receiver rejects length prefixes
// above maxFrame, so an oversized message must be refused here — at the
// origin, with a diagnosable error — rather than poisoning the peer.
func checkFrameSize(n int) error {
	if limit := maxFrame.Load(); uint64(1+8+n) > uint64(limit) {
		return fmt.Errorf("tcp: message of %d bytes exceeds the frame limit (%d-byte frame, max %d)", n, 1+8+n, limit)
	}
	return nil
}

func (s *session) enqueue(f *outFrame) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.terminalErrLocked()
	}
	f.seq = s.nextSeq
	s.nextSeq++
	s.unacked = append(s.unacked, f)
	s.sendQ = append(s.sendQ, f)
	s.stats.MsgsSent++
	s.stats.BytesSent += uint64(len(f.data))
	l := s.cur
	s.mu.Unlock()
	if l != nil {
		l.poke()
	}
	return nil
}

// Recv implements transport.Conn. Messages already delivered drain even
// after a close or failure; then the terminal error is returned.
func (s *session) Recv() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.recvQ.Len() == 0 && !s.closed {
		s.recvCond.Wait()
	}
	if s.recvQ.Len() > 0 {
		msg := s.recvQ.Pop()
		s.stats.MsgsReceived++
		s.stats.BytesRecv += uint64(len(msg))
		return msg, nil
	}
	return nil, s.terminalErrLocked()
}

func (s *session) terminalErrLocked() error {
	if s.err != nil {
		return s.err
	}
	return transport.ErrClosed
}

// Close implements transport.Conn: best-effort fin, then teardown.
func (s *session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.finDue = true
	l := s.cur
	s.recvCond.Broadcast()
	s.mu.Unlock()
	if l != nil {
		l.poke() // writer flushes the queue, sends fin, and exits
		select {
		case <-l.dead:
		case <-time.After(s.opts.HeartbeatInterval):
			l.kill()
		}
	}
	return nil
}

func (s *session) Stats() transport.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SessionID implements transport.Sessioner.
func (s *session) SessionID() uint64 { return s.id }

// Fence implements transport.Fencer: terminate the session AND bar any
// late traffic from it. The session id is deregistered from the owning
// listener, so a resume handshake presenting it is rejected (the client
// side then exhausts its redials and dies); data frames that race the
// teardown — already queued on the socket, or retransmitted before the
// reject lands — are discarded by the reader instead of delivered. A
// fenced peer that is in fact alive must dial a brand-new session to
// come back, which is what makes acting on a false suspicion safe.
func (s *session) Fence() {
	s.mu.Lock()
	s.fenced = true
	s.recvQ.Reset() // undelivered frames from the now-dead peer are dropped
	s.mu.Unlock()
	if s.lst != nil {
		s.lst.mu.Lock()
		delete(s.lst.sessions, s.id)
		s.lst.mu.Unlock()
	}
	s.fail(ErrFenced)
}

// fail terminates the session with err (first failure wins).
func (s *session) fail(err error) {
	s.mu.Lock()
	if s.err == nil && !s.peerFin {
		s.err = err
	}
	s.closed = true
	l := s.cur
	s.cur = nil
	s.recvCond.Broadcast()
	s.mu.Unlock()
	if l != nil {
		l.kill()
	}
}

// attach wires a fresh raw socket into the session. peerAcked is the
// last sequence number the peer reports having received: everything
// after it is (re)queued, in order, ahead of the writer starting.
func (s *session) attach(raw net.Conn, peerAcked uint64) {
	l := &link{raw: raw, notify: make(chan struct{}, 1), dead: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		raw.Close()
		return
	}
	if old := s.cur; old != nil {
		old.kill()
	}
	if s.deathTimer != nil {
		s.deathTimer.Stop()
		s.deathTimer = nil
	}
	s.pruneAckedLocked(peerAcked)
	// Rebuild the send queue for the new link: every unacked frame, in
	// order. Frames that had already been written at least once count as
	// retransmits.
	s.sendQ = s.sendQ[:0]
	for _, f := range s.unacked {
		if f.sent {
			s.stats.Retransmits++
		}
		s.sendQ = append(s.sendQ, f)
	}
	s.cur = l
	s.mu.Unlock()
	go s.writer(l)
	go s.reader(l)
	l.poke()
}

func (s *session) pruneAckedLocked(acked uint64) {
	if s.ignoreAcks {
		return
	}
	keep := s.unacked[:0]
	for _, f := range s.unacked {
		if f.seq > acked {
			keep = append(keep, f)
		}
	}
	s.unacked = keep
}

// linkDown handles the death of the current raw socket: the dialing side
// redials with exponential backoff; the listening side arms the session
// expiry and waits for the client to resume.
func (s *session) linkDown(l *link, cause error) {
	l.kill()
	s.mu.Lock()
	if s.cur != l || s.closed {
		s.mu.Unlock()
		return
	}
	s.cur = nil
	if s.dialAddr != "" {
		if !s.redialing {
			s.redialing = true
			go s.redial(cause)
		}
		s.mu.Unlock()
		return
	}
	if s.deathTimer == nil {
		s.deathTimer = time.AfterFunc(s.opts.SessionTimeout, func() {
			s.fail(fmt.Errorf("tcp: session %d: peer did not resume within %v: %w", s.id, s.opts.SessionTimeout, cause))
		})
	}
	s.mu.Unlock()
}

// redial reconnects the dialing side: one immediate attempt, then
// HeartbeatRetries more with exponential backoff.
func (s *session) redial(cause error) {
	var lastErr error = cause
	backoff := s.opts.RetryBackoff
	for attempt := 0; attempt <= s.opts.HeartbeatRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		raw, _, peerAcked, err := clientHandshake(s.dialAddr, s.opts, s.id, s.snapshotLastRecv())
		if err != nil {
			lastErr = err
			continue
		}
		s.mu.Lock()
		s.redialing = false
		s.stats.Reconnects++
		s.mu.Unlock()
		s.attach(raw, peerAcked)
		return
	}
	s.fail(fmt.Errorf("tcp: session %d: reconnect failed after %d attempts: %w", s.id, s.opts.HeartbeatRetries+1, lastErr))
}

func (s *session) snapshotLastRecv() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastRecv
}

// ackOverdueLocked reports whether enough has arrived unacknowledged that
// the ack is written now rather than left for the next write to carry.
func (s *session) ackOverdueLocked() bool {
	return s.lastRecv-s.ackSent >= ackWindowFrames || s.ackBytes >= ackWindowBytes
}

// writer drains the session's queue onto one raw socket. Everything
// collected in one wakeup is packed into one buffer and hits the socket as
// one Write (flushing early only past maxBatch): the flush boundary is the
// queue going momentarily empty, so senders that burst many small frames
// pay one syscall for the burst. No timer sits between a frame and its
// write. The pending ack rides whatever is written; on its own it goes out
// only when overdue (the reader pokes) or when the link has been idle for
// an interval, where it stands in for the heartbeat.
func (s *session) writer(l *link) {
	hb := time.NewTimer(s.opts.HeartbeatInterval)
	defer hb.Stop()
	lastWrite := time.Now()
	batch := make([]byte, 0, 32<<10)
	var frames []*outFrame
	idle := false // the idle timer fired: the peer must hear something
	for {
		s.mu.Lock()
		if s.cur != l {
			// Superseded by a resume: the queue now belongs to the new
			// link's writer.
			s.mu.Unlock()
			return
		}
		// The two queue arrays alternate between session and writer.
		frames, s.sendQ = s.sendQ, frames
		// Once Close has been called no new sends are accepted, so this
		// batch drains the queue and the fin can follow it.
		fin := s.finDue
		ackSeq := s.lastRecv
		ack := ackSeq != s.ackSent && (len(frames) > 0 || fin || idle || s.ackOverdueLocked())
		if ack {
			s.ackSent, s.ackBytes = ackSeq, 0
		}
		s.mu.Unlock()

		wrote := false
		var err error
		batch = batch[:0]
		flush := func() {
			if err == nil && len(batch) > 0 {
				_, err = l.raw.Write(batch)
				wrote = true
			}
			batch = batch[:0]
		}
		if ack {
			var seqBuf [8]byte
			binary.BigEndian.PutUint64(seqBuf[:], ackSeq)
			batch = appendWireFrame(batch, fAck, seqBuf[:])
		}
		for _, f := range frames {
			if err != nil {
				break
			}
			batch = appendDataFrame(batch, f.seq, f.data)
			f.sent = true
			if len(batch) >= maxBatch {
				flush()
			}
		}
		clear(frames)
		frames = frames[:0]
		if err == nil && fin {
			batch = appendWireFrame(batch, fFin, nil)
			flush() // best-effort
			l.kill()
			return
		}
		heartbeat := idle && len(batch) == 0
		if heartbeat {
			batch = appendWireFrame(batch, fHeartbeat, nil)
		}
		flush()
		if err != nil {
			// Unwritten frames of this batch are still in unacked; the
			// resume path requeues them.
			s.linkDown(l, err)
			return
		}
		if heartbeat {
			s.mu.Lock()
			s.stats.Heartbeats++
			s.mu.Unlock()
		}
		if wrote {
			lastWrite = time.Now()
		}

		idle = false
		select {
		case <-l.notify:
		case <-hb.C:
			// The timer is not touched per write: when it fires, either the
			// link really has been idle for an interval, or it sleeps out the
			// remainder.
			wait := s.opts.HeartbeatInterval - time.Since(lastWrite)
			if idle = wait <= 0; idle {
				wait = s.opts.HeartbeatInterval
			}
			hb.Reset(wait)
		case <-l.dead:
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

// reader consumes frames from one raw socket. Any read error — including
// the liveness deadline expiring — downs the link; a malformed frame fails
// the session. The buffered reader is the receive half of batching: one
// socket read surfaces a whole train of small frames, which then parse
// without further syscalls. The writer is woken only when the ack is
// overdue: otherwise it rides the application's next send.
func (s *session) reader(l *link) {
	br := bufio.NewReaderSize(deadlineReader{l.raw, s.opts.deadline()}, readBufSize)
	for {
		typ, seq, msg, err := readFrame(br)
		if err != nil {
			if errors.Is(err, errBadFrame) {
				s.fail(fmt.Errorf("tcp: session %d: %w", s.id, err))
				return
			}
			select {
			case <-l.dead: // orderly teardown, not a failure
			default:
				s.linkDown(l, err)
			}
			return
		}
		switch typ {
		case fData:
			overdue := false
			s.mu.Lock()
			switch {
			case s.fenced:
				// Late frame from a fenced (declared-dead) session: dropped,
				// never delivered. The fencing invariant the live executor's
				// recovery relies on.
				s.stats.DupsDropped++
			case seq <= s.lastRecv:
				// Retransmission of a message we already delivered: the
				// sender resumed from an older point than the handshake
				// told it. At-most-once delivery drops it here.
				s.stats.DupsDropped++
			case seq == s.lastRecv+1:
				s.lastRecv = seq
				s.ackBytes += len(msg)
				s.recvQ.Push(msg)
				if s.recvQ.Len() == 1 {
					s.recvCond.Signal() // Recv waits only on an empty queue
				}
				overdue = s.ackOverdueLocked()
			default:
				s.mu.Unlock()
				s.fail(fmt.Errorf("tcp: session %d: sequence gap: got %d, want <= %d", s.id, seq, s.lastRecv+1))
				return
			}
			s.mu.Unlock()
			if overdue {
				l.poke()
			}
		case fAck:
			s.mu.Lock()
			s.pruneAckedLocked(seq)
			s.mu.Unlock()
		case fHeartbeat:
			// Receipt alone resets the liveness deadline.
		case fFin:
			s.mu.Lock()
			s.peerFin = true
			s.closed = true
			s.recvCond.Broadcast()
			s.mu.Unlock()
			l.kill()
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

// appendDataFrame packs one data frame (type + 8-byte seq + message)
// without materializing the body separately.
func appendDataFrame(dst []byte, seq uint64, msg []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+8+len(msg)))
	dst = append(dst, fData)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	return append(dst, msg...)
}

// errBadFrame marks a frame the stream cannot contain: the peer is not
// speaking this protocol (or the bytes are corrupt), so the session fails
// rather than reconnecting into the same garbage.
var errBadFrame = errors.New("malformed frame")

func badFrame(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errBadFrame}, args...)...)
}

// readFrame reads one length-prefixed frame. The header — length, type,
// and the sequence number of a data or ack frame — is parsed in place in
// the reader's buffer and checked before anything is allocated: a control
// frame has a fixed size, so only a data frame's claimed length is ever
// believed, up to maxFrame, and its message is then read straight into a
// buffer of its own (the one the receiver will own). seq is the message's
// sequence number for fData and the acknowledged one for fAck. A peer that
// dies mid-frame surfaces as an io error here — the partial frame is never
// delivered.
func readFrame(br *bufio.Reader) (typ byte, seq uint64, msg []byte, err error) {
	hdr, err := br.Peek(5)
	if err != nil {
		if len(hdr) > 0 {
			err = midFrame(err)
		}
		return 0, 0, nil, err
	}
	n, typ := binary.BigEndian.Uint32(hdr), hdr[4]
	want := uint32(1) // the type byte alone
	switch typ {
	case fData:
		if n < 1+8 {
			return 0, 0, nil, badFrame("short data frame (%d bytes)", n)
		}
		if n > maxFrame.Load() {
			return 0, 0, nil, badFrame("invalid frame length %d", n)
		}
		want = n
	case fAck:
		want = 1 + 8
	case fHeartbeat, fFin:
	default:
		return 0, 0, nil, badFrame("unknown frame type 0x%02x (claiming %d bytes)", typ, n)
	}
	if n != want {
		return 0, 0, nil, badFrame("%c frame claims %d bytes, want %d", typ, n, want)
	}
	if n == 1 {
		br.Discard(5)
		return typ, 0, nil, nil
	}
	if hdr, err = br.Peek(5 + 8); err != nil {
		return 0, 0, nil, midFrame(err)
	}
	seq = binary.BigEndian.Uint64(hdr[5:])
	br.Discard(5 + 8)
	if typ == fData {
		msg = make([]byte, n-(1+8))
		if _, err := io.ReadFull(br, msg); err != nil {
			return 0, 0, nil, midFrame(err)
		}
	}
	return typ, seq, msg, nil
}

// midFrame is a read error inside a frame: there, end of stream is never
// a clean one.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func writeHandshake(c net.Conn, id, lastRecv uint64) error {
	var buf [hsLen]byte
	copy(buf[:3], hsMagic[:])
	buf[3] = hsVersion
	binary.BigEndian.PutUint64(buf[4:], id)
	binary.BigEndian.PutUint64(buf[12:], lastRecv)
	_, err := c.Write(buf[:])
	return err
}

func readHandshake(c net.Conn) (id, lastRecv uint64, err error) {
	var buf [hsLen]byte
	if _, err = io.ReadFull(c, buf[:]); err != nil {
		return 0, 0, err
	}
	if [3]byte{buf[0], buf[1], buf[2]} != hsMagic {
		return 0, 0, errors.New("tcp: bad handshake magic")
	}
	if buf[3] != hsVersion {
		return 0, 0, fmt.Errorf("tcp: handshake version mismatch: got %d, want %d", buf[3], hsVersion)
	}
	return binary.BigEndian.Uint64(buf[4:]), binary.BigEndian.Uint64(buf[12:]), nil
}

// clientHandshake dials addr and performs the session handshake. It
// returns the raw socket, the session id the server assigned (or echoed),
// and the peer's last-received sequence number.
func clientHandshake(addr string, opts Options, id, lastRecv uint64) (net.Conn, uint64, uint64, error) {
	raw, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, 0, 0, err
	}
	raw.SetDeadline(time.Now().Add(opts.DialTimeout))
	if err := writeHandshake(raw, id, lastRecv); err != nil {
		raw.Close()
		return nil, 0, 0, err
	}
	gotID, peerAcked, err := readHandshake(raw)
	if err != nil {
		raw.Close()
		return nil, 0, 0, err
	}
	if id != 0 && gotID != id {
		raw.Close()
		return nil, 0, 0, fmt.Errorf("tcp: handshake returned session %d, want %d", gotID, id)
	}
	raw.SetDeadline(time.Time{})
	if tc, ok := raw.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return raw, gotID, peerAcked, nil
}

// Dial opens a session to a Listener at addr.
func Dial(addr string, opts ...Options) (transport.Conn, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	o = o.withDefaults()
	raw, id, peerAcked, err := clientHandshake(addr, o, 0, 0)
	if err != nil {
		return nil, err
	}
	s := newSession(o, id, addr)
	s.attach(raw, peerAcked)
	return s, nil
}

// Listener accepts tcp sessions. New handshakes surface via Accept;
// resume handshakes reattach to their existing session transparently.
type Listener struct {
	nl   net.Listener
	opts Options

	mu       sync.Mutex
	sessions map[uint64]*session
	nextID   uint64
	closed   bool

	backlog chan *session
	done    chan struct{}
	// backlogWaits counts handshakes that found the backlog channel full
	// and had to block until Accept drained it. The channel send always
	// blocks rather than dropping the session — a burst of elastic
	// redials beyond the backlog must never be silently lost — so this
	// counter is the observable symptom of an undersized backlog.
	backlogWaits atomic.Uint64
}

// BacklogWaits reports how many inbound sessions found the accept backlog
// full and blocked waiting for Accept. Nonzero means dial bursts exceeded
// the backlog capacity; no session was dropped.
func (l *Listener) BacklogWaits() uint64 { return l.backlogWaits.Load() }

// Listen starts a session listener on addr (e.g. "127.0.0.1:0").
func Listen(addr string, opts ...Options) (*Listener, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	o = o.withDefaults()
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{
		nl:       nl,
		opts:     o,
		sessions: map[uint64]*session{},
		nextID:   1,
		backlog:  make(chan *session, 64),
		done:     make(chan struct{}),
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

// handshake routes one inbound raw socket: a zero session id creates a
// session and hands it to Accept; a known id resumes that session.
func (l *Listener) handshake(raw net.Conn) {
	raw.SetDeadline(time.Now().Add(l.opts.DialTimeout))
	id, peerAcked, err := readHandshake(raw)
	if err != nil {
		raw.Close()
		return
	}
	if id == 0 {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			raw.Close()
			return
		}
		id = l.nextID
		l.nextID++
		s := newSession(l.opts, id, "")
		s.lst = l
		l.sessions[id] = s
		l.mu.Unlock()
		if err := writeHandshake(raw, id, 0); err != nil {
			raw.Close()
			return
		}
		raw.SetDeadline(time.Time{})
		if tc, ok := raw.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		s.attach(raw, peerAcked)
		select {
		case l.backlog <- s:
		default:
			// Backlog full: block (never drop) and surface the pressure.
			l.backlogWaits.Add(1)
			select {
			case l.backlog <- s:
			case <-l.done:
				s.Close()
			}
		}
		return
	}
	l.mu.Lock()
	s := l.sessions[id]
	l.mu.Unlock()
	if s == nil {
		raw.Close()
		return
	}
	// The resume reply carries our lastRecv so the client retransmits
	// exactly the suffix we missed; it must precede our retransmissions.
	if err := writeHandshake(raw, id, s.snapshotLastRecv()); err != nil {
		raw.Close()
		return
	}
	raw.SetDeadline(time.Time{})
	if tc, ok := raw.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	s.mu.Lock()
	s.stats.Reconnects++
	s.mu.Unlock()
	s.attach(raw, peerAcked)
}

// Accept implements transport.Listener.
func (l *Listener) Accept() (transport.Conn, error) {
	select {
	case s := <-l.backlog:
		return s, nil
	case <-l.done:
		return nil, transport.ErrClosed
	}
}

// Addr implements transport.Listener.
func (l *Listener) Addr() string { return l.nl.Addr().String() }

// Close stops accepting new sessions. Existing sessions live on until
// closed individually.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.done)
	return l.nl.Close()
}

var (
	_ transport.Conn        = (*session)(nil)
	_ transport.Statser     = (*session)(nil)
	_ transport.Fencer      = (*session)(nil)
	_ transport.Sessioner   = (*session)(nil)
	_ transport.OwnedSender = (*session)(nil)
	_ transport.Listener    = (*Listener)(nil)
)

// dropRaw is a test hook: it kills the current raw socket without
// touching session state, simulating a network-level connection drop.
func (s *session) dropRaw() {
	s.mu.Lock()
	l := s.cur
	s.mu.Unlock()
	if l != nil {
		l.raw.Close() // reader/writer error out → linkDown → redial/resume
	}
}
