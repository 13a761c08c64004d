// Package livetest is a chaos-test harness for the live executor: it
// builds an in-process cluster and fires a scripted sequence of
// membership events — fail-stop kills, graceful drains, fresh joins —
// at deterministic points in the task stream.
//
// Scripting on the count of retired tasks (rather than wall-clock time)
// makes chaos schedules reproducible: "kill worker 2 after 5 tasks have
// retired" happens at the same logical point in every run, so a failing
// seed replays. The harness is the test half of the executor's fault
// tolerance: every scripted run must still produce results bit-identical
// to the serial oracle, which is exactly the paper's determinism
// guarantee extended to a crashing, elastic machine set.
package livetest

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/exec/live"
	"repro/internal/rt"
)

// Step is one scripted membership event. Exactly one of Kill, Drain, or
// Join should be set. The step fires when the count of retired
// dispatched tasks first reaches AfterDone.
type Step struct {
	// AfterDone is the retired-task count that triggers the step.
	AfterDone int
	// Kill declares worker machine Kill dead (fail-stop; its session is
	// fenced and its work recovered). 0 = no kill.
	Kill int
	// Drain gracefully retires worker machine Drain. 0 = no drain.
	Drain int
	// Join admits this many fresh workers.
	Join int
}

// Options configure a chaos cluster.
type Options struct {
	// Workers is the initial worker count (required, ≥ 1).
	Workers int
	// Slots is the per-worker concurrency (0 = 1).
	Slots int
	// MaxLiveTasks bounds outstanding tasks (0 = executor default).
	MaxLiveTasks int
	// Script is the membership schedule, fired in AfterDone order.
	Script []Step
	// Trace records execution events.
	Trace bool
}

// Cluster is a live coordinator plus in-process workers under a chaos
// script.
type Cluster struct {
	// X is the coordinator; tests read FaultStats, Members, and object
	// values from it.
	X *live.Exec

	fleet *live.Fleet

	// mu guards the script state and is held while a step is applied, so
	// steps take effect one at a time, in script order.
	mu     sync.Mutex
	script []Step // sorted by AfterDone
	cursor int
	errs   []error
}

// New builds the cluster and starts the initial workers in process, over
// goroutine pipes. The script is sorted by AfterDone; ties fire in the
// order given.
func New(opts Options) (*Cluster, error) {
	c := &Cluster{script: append([]Step(nil), opts.Script...)}
	sort.SliceStable(c.script, func(i, j int) bool {
		return c.script[i].AfterDone < c.script[j].AfterDone
	})
	bodies := live.NewBodyTable()
	host := func(i int) live.WorkerOptions {
		return live.WorkerOptions{Name: fmt.Sprintf("chaos-%d", i+1), Bodies: bodies, Slots: opts.Slots}
	}
	fleet, conns, err := live.StartFleet("", "", opts.Workers, 0, host)
	if err != nil {
		return nil, err
	}
	x, err := live.New(live.Options{
		Peers:        conns,
		Bodies:       bodies,
		MaxLiveTasks: opts.MaxLiveTasks,
		Trace:        opts.Trace,
		OnTaskDone:   c.onTaskDone,
	})
	if err != nil {
		return nil, err
	}
	c.fleet = fleet
	c.X = x
	return c, nil
}

// Run executes the program under the script and returns the run error,
// if any. Script-step errors are reported separately by Err.
func (c *Cluster) Run(main func(rt.TC)) error {
	return c.X.Run(main)
}

// Err returns the first error a script step produced, if any.
func (c *Cluster) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) > 0 {
		return c.errs[0]
	}
	return nil
}

// Fired reports how many script steps have fired. A fired step has been
// applied: the retirement that triggered it does not return before.
func (c *Cluster) Fired() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cursor
}

// onTaskDone is the executor's retirement hook: apply every step whose
// threshold has been reached, in order, each at most once — here, on the
// receive loop that retired the task, before the retirement is counted
// towards the end of the run. A step therefore lands at the same point of
// every run's progress, and cannot lose a race with the program's last
// task (live.ErrClosing is what an unsynchronized caller would get then).
// Nothing a step needs — a handshake, the membership lock, a fence — waits
// for the loop it runs on: the executor asks its workers for nothing.
func (c *Cluster) onTaskDone(done int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.cursor < len(c.script) && c.script[c.cursor].AfterDone <= done {
		step := c.script[c.cursor]
		c.cursor++
		if err := c.applyLocked(step); err != nil {
			c.errs = append(c.errs, err)
		}
	}
}

// applyLocked executes one step. Requires c.mu.
func (c *Cluster) applyLocked(s Step) error {
	if s.Kill != 0 {
		if err := c.X.KillWorker(s.Kill); err != nil {
			return fmt.Errorf("livetest: step kill %d: %w", s.Kill, err)
		}
	}
	if s.Drain != 0 {
		if err := c.X.Drain(s.Drain); err != nil {
			return fmt.Errorf("livetest: step drain %d: %w", s.Drain, err)
		}
	}
	for i := 0; i < s.Join; i++ {
		conn, err := c.fleet.Join()
		if err == nil {
			_, err = c.X.Admit(conn)
		}
		if err != nil {
			return fmt.Errorf("livetest: step join: %w", err)
		}
	}
	return nil
}
