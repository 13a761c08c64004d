package pool

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// behaviour is what a model item does once it has a slot.
type behaviour int

const (
	quick behaviour = iota // end at once
	hold                   // wait for its gate holding the slot
	yield                  // give the slot up (Yield), wait for its gate, Resume, take a slot again
)

// item is one pushed item of the model test.
type item struct {
	i    int
	do   behaviour
	gate chan struct{}
}

// model counts what the items of one schedule are doing, beside the pool
// under test. The host's slots are the tokens channel, as in smp and the
// live worker: a runner takes the item, then a token.
type model struct {
	t      *testing.T
	p      *Pool[*item]
	tokens chan struct{}

	mu      sync.Mutex
	pushed  int // items pushed
	started int // items that have had a slot
	done    int // items whose run has returned
	resumed int // items back from a yield, waiting for a slot again
	moving  int // items let through their gate, not waiting for a slot, not done
	blocked map[int]*item
	runners int // runners started (newRunner calls)
	peak    int // most items pushed and not done at once
}

func newModel(t *testing.T, slots int) *model {
	m := &model{t: t, tokens: make(chan struct{}, slots), blocked: map[int]*item{}}
	for i := 0; i < slots; i++ {
		m.tokens <- struct{}{}
	}
	m.p = New(slots, m.newRunner)
	return m
}

func (m *model) newRunner() func(*item) bool {
	m.mu.Lock()
	m.runners++
	m.mu.Unlock()
	return m.run
}

// run is one item on its runner.
func (m *model) run(it *item) bool {
	m.checkFIFO(it)
	<-m.tokens
	m.mu.Lock()
	m.started++
	if it.do != quick {
		m.blocked[it.i] = it
	}
	m.mu.Unlock()
	switch it.do {
	case hold:
		<-it.gate
	case yield:
		m.p.Yield()
		m.tokens <- struct{}{}
		<-it.gate
		m.p.Resume()
		m.mu.Lock()
		m.moving--
		m.resumed++
		m.mu.Unlock()
		<-m.tokens
		m.mu.Lock()
		m.resumed--
		m.moving++
		m.mu.Unlock()
	}
	m.p.Free()
	m.mu.Lock()
	if it.do != quick {
		m.moving--
	}
	m.done++
	m.mu.Unlock()
	m.tokens <- struct{}{}
	return true
}

// checkFIFO fails the test if an item pushed before it is still queued
// when it starts: items start in push order. It reads the queue under the
// pool's lock by popping it and pushing every item back.
func (m *model) checkFIFO(it *item) {
	m.p.mu.Lock()
	defer m.p.mu.Unlock()
	for n := m.p.queue.Len(); n > 0; n-- {
		v := m.p.queue.Pop()
		if v.i < it.i {
			m.t.Errorf("item %d started while item %d, pushed before it, was still queued", it.i, v.i)
		}
		m.p.queue.Push(v)
	}
}

func (m *model) push(do behaviour) {
	m.mu.Lock()
	it := &item{i: m.pushed, do: do, gate: make(chan struct{})}
	m.pushed++
	// Nothing ends between here and the push's spawn but more items, so
	// this bounds what was queued or running when Push started runners.
	m.peak = max(m.peak, m.pushed-m.done)
	m.mu.Unlock()
	m.p.Push(it)
}

// open lets one blocked item through its gate.
func (m *model) open(r *rand.Rand) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.blocked) == 0 {
		return
	}
	keys := make([]int, 0, len(m.blocked))
	for k := range m.blocked {
		keys = append(keys, k)
	}
	slices.Sort(keys) // the seeded generator picks, not map order
	k := keys[r.Intn(len(keys))]
	it := m.blocked[k]
	delete(m.blocked, k)
	m.moving++
	close(it.gate)
}

// settle waits until every queued item has a slot or no slot is free, and
// no item is between its gate and its next wait: a queued item always has
// a taker. An item that stays queued while a slot is free has none.
func (m *model) settle(what string) {
	deadline := time.Now().Add(5 * time.Second)
	for spins := 0; ; spins++ {
		m.mu.Lock()
		waiting, moving := m.pushed-m.started+m.resumed, m.moving
		m.mu.Unlock()
		free := len(m.tokens)
		if moving == 0 && (waiting == 0 || free == 0) {
			return
		}
		if time.Now().After(deadline) {
			m.t.Fatalf("%s: %d items wait for a slot while %d of %d slots are free (%d items moving): a queued item has no taker",
				what, waiting, free, cap(m.tokens), moving)
		}
		if runtime.Gosched(); spins > 100 {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestPoolMatchesModel drives seeded random schedules of pushes, gate
// openings and the host's own claims (Resume, then Yield, as the smp main
// program does) against the counting model, at every slot count from one
// to four, and checks that a queued item always has a taker, that items
// start in push order, that the runners started never outnumber the items
// queued or running at once, and that Close joins every runner once the
// last item ends — and not before.
func TestPoolMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		slots := 1 + int(seed%4)
		if !t.Run(fmt.Sprintf("seed%d-slots%d", seed, slots), func(t *testing.T) {
			runSchedule(t, rand.New(rand.NewSource(seed)), slots)
		}) {
			break // a failed schedule leaves its runners stuck
		}
	}
}

func runSchedule(t *testing.T, r *rand.Rand, slots int) {
	goroutines := runtime.NumGoroutine()
	m := newModel(t, slots)
	hostClaims := 0
	for op := 0; op < 60; op++ {
		switch k := r.Intn(10); {
		case k < 5:
			m.push(behaviour(r.Intn(3)))
		case k < 8:
			m.open(r)
		case hostClaims == 0:
			// The host claims a slot for its own code: Resume, then a
			// token, if one is free.
			select {
			case <-m.tokens:
				m.p.Resume()
				hostClaims++
			default:
			}
		default:
			m.p.Yield()
			m.tokens <- struct{}{}
			hostClaims--
		}
		m.settle(fmt.Sprintf("op %d", op))
		if t.Failed() {
			return
		}
	}
	for ; hostClaims > 0; hostClaims-- {
		m.p.Yield()
		m.tokens <- struct{}{}
	}
	m.settle("host claims returned")

	closed := make(chan struct{})
	go func() {
		m.p.Close()
		close(closed)
	}()
	for {
		returned := false
		select {
		case <-closed:
			returned = true
		default:
		}
		m.mu.Lock()
		left := m.pushed - m.done
		m.mu.Unlock()
		if returned && left > 0 {
			t.Fatalf("Close returned with %d items not ended", left)
		}
		if left == 0 {
			break
		}
		m.open(r)
		m.settle("closing")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the last item ended")
	}
	if m.runners > m.peak {
		t.Errorf("%d runners started, but at most %d items were queued or running at once", m.runners, m.peak)
	}
	// Close has joined the runners; their goroutines leave the scheduler's
	// count a moment after, as does the one that called Close.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > goroutines {
		t.Errorf("%d goroutines after Close, %d before the pool", after, goroutines)
	}
}

// TestPushAllocatesNothing: once its queue has grown, a pool allocates
// nothing per item pushed and run.
func TestPushAllocatesNothing(t *testing.T) {
	ran := make(chan int, 1)
	var p *Pool[int]
	p = New(2, func() func(int) bool {
		return func(v int) bool {
			p.Free()
			ran <- v
			return true
		}
	})
	defer p.Close()
	p.Push(0)
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("an item pushed to an idle pool never ran")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p.Push(1)
		<-ran
	})
	if allocs != 0 {
		t.Errorf("%.2f allocations per item, want 0", allocs)
	}
}
