package transport

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
