package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/access"
)

// forEachQueue visits every live queue, holding its lock around f. This is
// safe to call concurrently with engine operations: each queue is checked
// under its own lock, the granularity at which the sharded engine
// guarantees its invariants.
func forEachQueue(e *Engine, f func(q *objQueue) error) error {
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		qs := make([]*objQueue, 0, len(s.queues))
		for _, q := range s.queues {
			qs = append(qs, q)
		}
		s.mu.RUnlock()
		for _, q := range qs {
			q.mu.Lock()
			err := f(q)
			q.mu.Unlock()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// checkQueueLocked verifies one queue's consistency. Caller holds q.mu.
func checkQueueLocked(q *objQueue) error {
	obj := q.id
	for i := 1; i < len(q.entries); i++ {
		if !q.entries[i-1].task.Seq.Less(q.entries[i].task.Seq) {
			return fmt.Errorf("object #%d: queue not strictly ordered at %d (%v vs %v)",
				obj, i, q.entries[i-1].task.Seq, q.entries[i].task.Seq)
		}
	}
	for _, en := range q.entries {
		if en.task.State() == Done {
			return fmt.Errorf("object #%d: completed task %d still queued", obj, en.task.ID)
		}
		if got := en.task.Mode(obj); got != en.mode {
			return fmt.Errorf("object #%d: entry mode %v != spec mode %v for task %d",
				obj, en.mode, got, en.task.ID)
		}
	}
	if q.cmLock != nil {
		found := false
		for _, en := range q.entries {
			if en == q.cmLock {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("object #%d: commute lock held by dequeued entry", obj)
		}
	}
	// No waiter left parked whose entry is already enabled (wakeLocked
	// must have fired it).
	for _, w := range q.waiters {
		if ok, _ := q.scanEnabled(w.e, w.mode); ok {
			return fmt.Errorf("object #%d: enabled waiter left parked (task %d mode %v)",
				obj, w.e.task.ID, w.mode)
		}
	}
	// Commute-lock waiters must be ordered-enabled (they queued on the
	// lock only after passing the order check) and the lock must be
	// busy while they wait.
	if len(q.cmWaiters) > 0 && q.cmLock == nil {
		return fmt.Errorf("object #%d: commute waiters with free lock", obj)
	}
	// At most one entry may be write-enabled: a second writer always has
	// an earlier conflicting entry. This is the queue-order theorem the
	// deterministic semantics rests on.
	writers := 0
	for _, en := range q.entries {
		if ok, _ := q.scanEnabled(en, access.Write); ok && en.mode.HasAny(access.Write) {
			writers++
		}
	}
	if writers > 1 {
		return fmt.Errorf("object #%d: %d enabled writers", obj, writers)
	}
	return checkSummaryLocked(q)
}

// checkSummaryLocked verifies q's summary of queued rights: the counts
// equal a recount, and for every entry and mode the summary's answer is the
// one a scan of the whole queue gives. Caller holds q.mu.
func checkSummaryLocked(q *objQueue) error {
	var recount objQueue
	for _, en := range q.entries {
		recount.tally(en.mode, +1)
	}
	if recount.readers != q.readers || recount.writers != q.writers || recount.commuters != q.commuters {
		return fmt.Errorf("object #%d: summary rd/wr/cm = %d/%d/%d, recount %d/%d/%d",
			q.id, q.readers, q.writers, q.commuters, recount.readers, recount.writers, recount.commuters)
	}
	for _, en := range q.entries {
		for _, m := range []access.Mode{access.Read, access.Write, access.ReadWrite, access.Commute} {
			others := false // the question othersConflict answers, by scan
			for _, x := range q.entries {
				if x != en && !x.task.Seq.IsAncestorOf(en.task.Seq) && x.mode.ConflictsWith(m) {
					others = true
				}
			}
			if got := q.othersConflict(en, m); got != others {
				return fmt.Errorf("object #%d: summary says others conflict with task %d's %v = %v, scan says %v",
					q.id, en.task.ID, m, got, others)
			}
			// ... and what the engine does with it: a check the summary
			// decides agrees with the full scan.
			if ok, _ := q.scanEnabled(en, m); !others && !ok {
				return fmt.Errorf("object #%d: summary enables task %d for %v, scan does not", q.id, en.task.ID, m)
			}
		}
	}
	return nil
}

// checkInvariants verifies the engine's internal consistency, queue by
// queue under each queue's own lock.
func checkInvariants(e *Engine) error {
	return forEachQueue(e, checkQueueLocked)
}

// TestEngineInvariantsUnderRandomOps drives the engine with random valid
// operation sequences and checks internal invariants after every step.
func TestEngineInvariantsUnderRandomOps(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ready []*Task
		e := New(Hooks{Ready: func(tk *Task) { ready = append(ready, tk) }})
		root := e.Root()
		var running []*Task
		nObjects := 4 + rng.Intn(4)

		step := func() {
			switch rng.Intn(5) {
			case 0, 1: // create a task from root
				var decls []access.Decl
				n := 1 + rng.Intn(3)
				for k := 0; k < n; k++ {
					mode := []access.Mode{
						access.Read, access.Write, access.ReadWrite,
						access.DeferredRead, access.Commute,
					}[rng.Intn(5)]
					decls = append(decls, access.Decl{
						Object: access.ObjectID(rng.Intn(nObjects) + 1),
						Mode:   mode,
					})
				}
				if _, err := e.Create(root, decls, nil); err != nil {
					t.Fatalf("seed %d: create: %v", seed, err)
				}
			case 2: // start a ready task
				if len(ready) > 0 {
					i := rng.Intn(len(ready))
					tk := ready[i]
					ready = append(ready[:i], ready[i+1:]...)
					if err := e.Start(tk); err != nil {
						t.Fatalf("seed %d: start: %v", seed, err)
					}
					running = append(running, tk)
				}
			case 3: // complete a running task
				if len(running) > 0 {
					i := rng.Intn(len(running))
					tk := running[i]
					running = append(running[:i], running[i+1:]...)
					if err := e.Complete(tk); err != nil {
						t.Fatalf("seed %d: complete: %v", seed, err)
					}
				}
			case 4: // a running task retracts something it holds
				if len(running) > 0 {
					tk := running[rng.Intn(len(running))]
					for _, d := range tk.Decls {
						which := access.AnyRead
						if rng.Intn(2) == 0 {
							which = access.AnyWrite
						}
						if err := e.Retract(tk, d.Object, which); err != nil {
							t.Fatalf("seed %d: retract: %v", seed, err)
						}
						break
					}
				}
			}
		}
		for i := 0; i < 120; i++ {
			step()
			if err := checkInvariants(e); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
		}
		// Drain: start and complete everything so the program can finish.
		for len(ready) > 0 || len(running) > 0 {
			for _, tk := range ready {
				if err := e.Start(tk); err != nil {
					t.Fatalf("seed %d drain start: %v", seed, err)
				}
				running = append(running, tk)
			}
			ready = nil
			for _, tk := range running {
				if err := e.Complete(tk); err != nil {
					t.Fatalf("seed %d drain complete: %v", seed, err)
				}
			}
			running = nil
			if err := checkInvariants(e); err != nil {
				t.Fatalf("seed %d drain: %v", seed, err)
			}
		}
		if err := e.Complete(root); err != nil {
			t.Fatalf("seed %d: complete root: %v", seed, err)
		}
		if e.Live() != 0 {
			t.Fatalf("seed %d: %d tasks leaked", seed, e.Live())
		}
		// All queues empty at the end.
		if err := forEachQueue(e, func(q *objQueue) error {
			if len(q.entries) != 0 || len(q.waiters) != 0 || q.cmLock != nil {
				return fmt.Errorf("object #%d not drained", q.id)
			}
			return nil
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestEngineInvariantsWithHierarchy checks the invariants — the queue
// summary among them — after every operation of random programs with
// nested creators, commuting updates, blocking accesses and with-cont
// conversions and retractions (program_test.go).
func TestEngineInvariantsWithHierarchy(t *testing.T) {
	nested := 0
	for seed := int64(0); seed < 30; seed++ {
		p := newProgram(t, seed+100, Hooks{})
		p.afterOp = func(op string) {
			if err := checkInvariants(p.e); err != nil {
				t.Fatalf("seed %d, after %s: %v", seed, op, err)
			}
		}
		p.run(150)
		_ = forEachQueue(p.e, func(q *objQueue) error {
			if q.nested {
				nested++
			}
			return nil
		})
	}
	if nested == 0 {
		t.Fatal("no program ever inserted ahead of a queued entry: the nested-creator case went untested")
	}
}
