package transport

import "sync"

// FIFO is the unbounded queue under every substrate's Recv. The live part
// is items[head:]. Pop zeroes the slot it empties, so a consumer that
// lags never keeps a message it has already taken reachable through the
// dead prefix (for a megabyte object image that prefix was the leak); a
// queue that drains starts over at the front of its array, so steady
// request/reply traffic allocates nothing here. The zero value is an
// empty queue. Not safe for concurrent use: callers hold their own lock.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if len(q.items) == cap(q.items) && q.head > 0 && q.head >= len(q.items)/2 {
		// Full, and at least half of it is dead prefix: slide the live part
		// down instead of growing. The pops that built the prefix pay for
		// the copy, and the array stays within twice the deepest backlog.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the oldest item. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// Reset drops every queued item and the array.
func (q *FIFO[T]) Reset() { q.items, q.head = nil, 0 }

// Queue is one direction of message traffic a receiver blocks on: an
// inproc pipe's, or one mux session's inbox. Put never blocks, so two
// endpoints can flood each other without deadlock; Get waits for a
// message, and after Close drains what was queued before it. A routed
// queue hands each Put to its router under the queue's lock.
type Queue struct {
	mu     sync.Mutex
	cond   sync.Cond
	msgs   FIFO[[]byte]
	router Router
	closed bool
	err    error // what Get returns once closed and empty
}

// NewQueue returns an empty, open queue.
func NewQueue() *Queue {
	q := &Queue{}
	q.cond.L = &q.mu
	return q
}

// Put enqueues msg without copying: the queue, and then the receiver,
// owns it. On a closed queue it returns ErrClosed and msg stays the
// caller's.
func (q *Queue) Put(msg []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.router != nil {
		q.router.Deliver(msg)
		return nil
	}
	q.msgs.Push(msg)
	q.cond.Signal()
	return nil
}

// Route implements Routable: what is queued, each later Put and the close
// go to r.
func (q *Queue) Route(r Router) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.msgs.Len() > 0 {
		r.Deliver(q.msgs.Pop())
	}
	q.router = r
	if q.closed {
		r.End(q.err)
	}
}

// Get removes and returns the oldest message, waiting for one. Once the
// queue is closed and empty it returns the error it was closed with.
func (q *Queue) Get() ([]byte, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.msgs.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.msgs.Len() == 0 {
		return nil, q.err
	}
	return q.msgs.Pop(), nil
}

// Len returns the number of queued messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.msgs.Len()
}

// Close ends the queue; messages already in it stay readable, then Get
// returns ErrClosed.
func (q *Queue) Close() { q.CloseWith(ErrClosed, false) }

// CloseDiscard closes the queue and gives the messages in it back to the
// buffer pool: the fencing teardown, where late frames from a
// declared-dead peer must never be delivered.
func (q *Queue) CloseDiscard() { q.CloseWith(ErrClosed, true) }

// CloseWith ends the queue with err, which Get returns once what is queued
// is read, or dropped with discard. The first close sets the error.
func (q *Queue) CloseWith(err error, discard bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for discard && q.msgs.Len() > 0 {
		PutBuf(q.msgs.Pop())
	}
	if q.closed {
		return
	}
	q.closed, q.err = true, err
	q.cond.Broadcast()
	if q.router != nil {
		q.router.End(err)
	}
}
