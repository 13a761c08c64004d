// Package pool runs queued items on runners, goroutines that outlive the
// items they run: the processor model smp and the live worker share
// (DESIGN.md §2). An item holds one of its host's slots while it computes
// and gives it up while it waits (the paper's §3.3), so a blocked item never
// wastes a processor. free counts the runners holding no item; claim counts
// what will want a slot without a new runner: free runners, runners whose
// item is not between Yield and Resume, and the host's own claims. Push and
// Yield start min(queued − free, slots − claim) runners, so a queued item
// always has a taker and a slot an item gives up can go to a queued one. A
// runner takes the oldest item, then its host's slot. With the queue empty,
// free runners wait until Close.
package pool

import (
	"sync"
	"sync/atomic"

	"repro/internal/transport"
)

// Pool is one host's runners and the FIFO of items they take.
type Pool[T any] struct {
	slots     int
	newRunner func() func(T) bool

	mu          sync.Mutex
	work        sync.Cond // free runners wait here for the next item
	queue       transport.FIFO[T]
	free, claim int
	closed      bool
	wg          sync.WaitGroup
}

// New returns a pool for a host of slots slots. newRunner is called on each
// runner's goroutine as it starts and returns what the runner does with each
// item it takes: run it, calling Free once the item can no longer wait, and
// report false if the runner must leave at once (its host has died).
func New[T any](slots int, newRunner func() func(T) bool) *Pool[T] {
	p := &Pool[T]{slots: slots, newRunner: newRunner}
	p.work.L = &p.mu
	return p
}

// Push queues v for a runner.
func (p *Pool[T]) Push(v T) {
	p.mu.Lock()
	p.queue.Push(v)
	p.work.Signal()
	p.spawnLocked()
	p.mu.Unlock()
}

// Yield withdraws the caller's claim on a slot: it is giving its slot up to
// wait, and a queued item may need a runner for it.
func (p *Pool[T]) Yield() { p.count(&p.claim, -1) }

// Resume restores a claim: the caller will want a slot again.
func (p *Pool[T]) Resume() { p.count(&p.claim, +1) }

// Free counts the calling runner free: it will take the next queued item.
func (p *Pool[T]) Free() { p.count(&p.free, +1) }

// count moves one of the counts by d and starts the runners that queued
// items then lack (none, unless a claim was withdrawn).
func (p *Pool[T]) count(n *int, d int) {
	p.mu.Lock()
	*n += d
	p.spawnLocked()
	p.mu.Unlock()
}

// Close tells the runners to leave once the queue is empty, and returns
// when every runner has left.
func (p *Pool[T]) Close() {
	p.mu.Lock()
	p.closed = true
	p.work.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

var started atomic.Int64

// Started reports how many runners the pools of this process have started.
// The hosts' tests read it: an item should cost none.
func Started() int64 { return started.Load() }

// spawnLocked starts runners for queued items no free runner will take, as
// many at once as there are slots nothing else will claim. Requires p.mu.
func (p *Pool[T]) spawnLocked() {
	for n := min(p.queue.Len()-p.free, p.slots-p.claim); n > 0; n-- {
		p.free++
		p.claim++
		p.wg.Add(1)
		started.Add(1)
		go p.runner()
	}
}

// runner takes the oldest item and runs it, round and round, until the pool
// is closed and empty or an item says to leave.
func (p *Pool[T]) runner() {
	defer p.wg.Done()
	run := p.newRunner()
	for {
		p.mu.Lock()
		for p.queue.Len() == 0 {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.work.Wait()
		}
		v := p.queue.Pop()
		p.free--
		p.mu.Unlock()
		if !run(v) {
			return
		}
	}
}
