package transport

import "sync"

// Buffer pooling for the frame hot path. The live executor encodes tens
// of thousands of small frames per second; allocating each one fresh put
// the allocator (memclr + memmove) at the top of the CPU profile. GetBuf
// and PutBuf recycle encode buffers through a sync.Pool, and the optional
// OwnedSender interface lets a substrate take ownership of a pooled
// buffer instead of copying it.
//
// Ownership discipline (see DESIGN.md §4.14):
//
//   - A buffer from GetBuf belongs to the caller until it is handed to
//     PutBuf, SendOwned, or SendPooled — exactly one of them, exactly
//     once.
//   - SendOwned transfers ownership to the substrate: the caller must not
//     touch the slice afterwards. The substrate frees or recycles it when
//     delivery bookkeeping no longer needs it.
//   - Recv hands the returned slice to the receiver (the Conn contract),
//     and on every substrate it is a buffer for the pool: inproc passes
//     on the one SendOwned handed over (or Send's copy), tcp's reader
//     fills one from GetBuf, and a mux session routes its connection's.
//     A receiver that fully consumes a message gives it back with PutBuf.

// maxPooledBuf caps what PutBuf retains. Object images can reach
// megabytes; keeping them alive in the pool would pin peak memory, so
// oversized buffers are left to the GC.
const maxPooledBuf = 1 << 20

// bufPool holds recycled buffers, each in a *[]byte box (a sync.Pool
// stores pointers without allocating). boxPool holds the empty boxes
// GetBuf leaves behind, for PutBuf to fill again, so a Get/Put cycle
// allocates nothing.
var (
	bufPool = sync.Pool{
		New: func() any {
			b := make([]byte, 0, 512)
			return &b
		},
	}
	boxPool sync.Pool
)

// GetBuf returns a zero-length buffer with non-trivial capacity.
func GetBuf() []byte {
	box := bufPool.Get().(*[]byte)
	b := (*box)[:0]
	*box = nil
	boxPool.Put(box)
	return b
}

// PutBuf recycles a buffer obtained from GetBuf (or any buffer the caller
// owns outright). The caller must not use b afterwards.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	box, _ := boxPool.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	bufPool.Put(box)
}

// OwnedSender is the optional ownership-transfer variant of Conn.Send:
// the connection takes msg instead of copying it, and the caller must not
// retain or reuse the slice. Substrates that queue the bytes anyway (tcp
// until its writer has copied them into a batch, then back to the pool;
// inproc until the peer's Recv takes them) implement it to skip the
// defensive copy Send requires.
type OwnedSender interface {
	SendOwned(msg []byte) error
}

// SendPooled ships a pooled buffer over c with whichever discipline the
// substrate supports: ownership transfer when c is an OwnedSender,
// otherwise Send (which must not retain msg) followed by recycling the
// buffer. Either way the caller has relinquished msg when this returns.
func SendPooled(c Conn, msg []byte) error {
	if os, ok := c.(OwnedSender); ok {
		return os.SendOwned(msg)
	}
	err := c.Send(msg)
	PutBuf(msg)
	return err
}
