package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/jade"
)

// fleet is the one fleet shape every workload uses.
const (
	fleetWorkers = 4
	serviceSlots = 2
)

// workload is one named input set: why it exists, the latency limit its
// slo_ok_frac is judged against, and how to build a runnable instance.
type workload struct {
	name  string
	why   string
	sloMs float64
	// transport names the substrate under the executor ("" = none), which
	// picks the per-frame transport cost in the budget table.
	transport string
	// setup builds the serial oracle, starts whatever fleet outlives an
	// op, and runs a fixed number of untimed warm-up ops.
	setup func(seed int64, sloMs float64) (instance, error)
}

// instance is a set-up workload. round runs it for about dur and reports
// what it measured; p selects the pass (timed rounds: spans off, default
// ring; traced pass: Trace on, spans on, Report() read after every op).
type instance interface {
	round(dur time.Duration, p *pass) roundResult
	close()
}

// roundResult is one round of one workload. Every attempted op is in
// attempted; an op that errored or returned a wrong result is in failed and
// is never retried.
type roundResult struct {
	attempted, failed int
	// judged counts the ops the latency limit applies to, within those of
	// them that were correct and no slower than it: an error, a wrong
	// result or a refusal is a miss.
	judged, within int
	okMs           []float64 // latency of each ok judged op (the latency metrics' samples)
	tasks          int       // tasks of ok ops in the throughput phase
	wall           time.Duration
	allTasks       int // tasks of every ok op in the round (alloc denominator)
	errs           []error
}

func (r *roundResult) fail(err error) { r.failN(1, err) }

// failN counts n ops lost to one error (a stream that aborts fails every
// request it carried).
func (r *roundResult) failN(n int, err error) {
	r.failed += n
	if len(r.errs) < 3 {
		r.errs = append(r.errs, err)
	}
}

func (r *roundResult) tasksPerS() float64 { return ratio(float64(r.tasks), r.wall.Seconds()) }

// pass is the context of one measuring pass over a workload.
type pass struct {
	traced bool      // build runtimes with Trace: true
	report bool      // read Report() after every op, outside its latency
	rec    *recorder // nil = harness spans off
	layers layerAcc
	mu     sync.Mutex // guards layers under concurrent clients
	opSeq  atomic.Int32
}

func (p *pass) nextOp() int32 { return p.opSeq.Add(1) }

// layerAcc sums the counters Report() exposes over the ops of a traced
// pass; the C metrics are ratios of these sums.
type layerAcc struct {
	tasks                  int
	lockAcq, waits, wakes  uint64
	frames                 int
	bytes                  int64
	coalesced              int
	deltaXfers, fullXfers  int
	deltaBytes, fullBytes  int64
	savedBytes             int64
	phaseTasks             int
	queue, fetch, exec     time.Duration
	commit                 time.Duration
	busy, makespanXWorkers time.Duration
	t1, tinf               time.Duration
	events                 int
	dropped                uint64
	// Session-service counters (tenant_mix only), from ServiceReport.
	sessionsOpened, sessionsQueued, peakActive int
	sessionBytes                               int64
	serve                                      serveAcc // serve_tcp only
}

// addReport folds one finished run's Report into the accumulator. Busy
// counts worker time: the smp executor's processors, or a live fleet's
// machines without the coordinator.
func (a *layerAcc) addReport(rep jade.Report, events int) {
	a.tasks += rep.Tasks.Run
	a.lockAcq += rep.Engine.LockAcquisitions
	a.waits += rep.Engine.Waits
	a.wakes += rep.Engine.BlockedWakes
	a.frames += rep.Net.Messages
	a.bytes += rep.Net.Bytes
	a.coalesced += rep.Delta.CoalescedDispatches
	a.deltaXfers += rep.Delta.DeltaTransfers
	a.fullXfers += rep.Delta.FullTransfers
	a.deltaBytes += rep.Delta.DeltaBytes
	a.fullBytes += rep.Delta.FullBytes
	a.savedBytes += rep.Delta.SavedBytes
	if p := rep.Profile; p != nil {
		a.phaseTasks += p.Tasks
		a.queue += p.Phases.Queue
		a.fetch += p.Phases.Fetch
		a.exec += p.Phases.Exec
		a.commit += p.Phases.Commit
		a.t1 += p.T1
		a.tinf += p.TInf
	}
	busy := rep.Tasks.Busy
	if len(rep.Workers) > 0 && len(busy) > 0 {
		busy = busy[1:] // live: machine 0 is the coordinator, not a worker
	}
	for _, b := range busy {
		a.busy += b
	}
	a.makespanXWorkers += rep.Makespan * time.Duration(len(busy))
	a.events += events
	a.dropped += rep.DroppedEvents
}

// traceEvents is the length of a traced run's full event log.
func traceEvents(r *jade.Runtime) int {
	if l := r.TraceLog(); l != nil {
		return l.Len()
	}
	return 0
}

// closedLoop runs clients goroutines, each calling op back to back until
// the deadline; an op in flight at the deadline finishes and counts. The
// round's wall runs from the start to the last client's return.
func closedLoop(clients int, dur time.Duration, limitMs float64, op func(client int) (ms float64, tasks int, err error)) roundResult {
	var res roundResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				ms, tasks, err := op(c)
				mu.Lock()
				res.attempted++
				res.judged++
				if err != nil {
					res.fail(err)
				} else {
					res.okMs = append(res.okMs, ms)
					res.tasks += tasks
					if ms <= limitMs {
						res.within++
					}
				}
				mu.Unlock()
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.allTasks = res.tasks
	return res
}
