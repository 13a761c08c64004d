// Package fault injects failures into the simulated distributed platform:
// machine crashes at scripted virtual times, probabilistic message loss and
// duplication, and timed link partitions. The paper's headline environment —
// a network of workstations on shared Ethernet (§6, the Mica array) — is
// exactly the setting where these anomalies are routine, and Jade's access
// specifications make recovery tractable: a task is a pure function of its
// declared read set, so re-executing it on a surviving machine provably
// reproduces the deterministic serial semantics.
//
// The package provides mechanism, not policy. A Plan scripts what goes
// wrong; Network wraps a netmodel.Network and applies loss, duplication,
// partitions and crash fencing to individual send attempts. The distributed
// executor (internal/exec/dist) owns policy: it schedules the crashes,
// probes machines with virtual-time heartbeats, retries lost messages with
// exponential backoff, and re-executes the dead machine's tasks.
package fault

import (
	"fmt"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Failure-detector and retry defaults. The simulated distributed executor
// applies them in virtual time; the live TCP transport reuses the same
// parameters in wall-clock time, scaled by its LivenessScale so real
// scheduling jitter does not trip a detector tuned for a simulator.
const (
	// DefaultHeartbeatInterval is the probe period of the failure detector.
	DefaultHeartbeatInterval = 10 * time.Millisecond
	// DefaultHeartbeatTimeout is the initial wait after a missed probe;
	// detectors double it per consecutive miss.
	DefaultHeartbeatTimeout = 3 * time.Millisecond
	// DefaultHeartbeatRetries is how many consecutive misses declare a
	// machine dead.
	DefaultHeartbeatRetries = 3
	// DefaultRetryBackoff is the initial retransmission delay of a
	// reliable send; it doubles per retry.
	DefaultRetryBackoff = 2 * time.Millisecond
)

// Cadence bundles the failure-detector timing parameters so every
// consumer — the simulated executor's virtual-time detector and the live
// TCP transport's wall-clock heartbeats — draws from one source of truth
// instead of copying the Default* constants field by field.
type Cadence struct {
	// HeartbeatInterval is the probe (or idle-heartbeat) period.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the initial wait after a missed probe,
	// doubling per consecutive miss.
	HeartbeatTimeout time.Duration
	// HeartbeatRetries is the consecutive-miss budget before a machine
	// is declared dead.
	HeartbeatRetries int
	// RetryBackoff is the initial retransmission delay, doubling per
	// retry.
	RetryBackoff time.Duration
}

// DefaultCadence returns the canonical detector cadence (the Default*
// constants as one value).
func DefaultCadence() Cadence {
	return Cadence{
		HeartbeatInterval: DefaultHeartbeatInterval,
		HeartbeatTimeout:  DefaultHeartbeatTimeout,
		HeartbeatRetries:  DefaultHeartbeatRetries,
		RetryBackoff:      DefaultRetryBackoff,
	}
}

// Scaled multiplies the durations by k (the retry count is unitless and
// unchanged): how the live transport converts simulator cadence into
// wall-clock settings that tolerate real scheduler jitter.
func (c Cadence) Scaled(k int) Cadence {
	c.HeartbeatInterval *= time.Duration(k)
	c.HeartbeatTimeout *= time.Duration(k)
	c.RetryBackoff *= time.Duration(k)
	return c
}

// Deadline is how long a silent peer stays presumed-live: one full
// heartbeat interval plus the exponential miss budget.
func (c Cadence) Deadline() time.Duration {
	return c.HeartbeatInterval + c.HeartbeatTimeout*(1<<c.HeartbeatRetries)
}

// Crash schedules the fail-stop death of one machine: at virtual time At its
// processor halts and its memory (object store, shadows) is lost. Machine 0
// hosts the main program and the runtime's control state and cannot crash —
// the same asymmetry as the paper's host/worker split.
type Crash struct {
	Machine int
	At      time.Duration
}

// Partition blocks all messages between machines A and B (both directions)
// during the virtual-time window [From, To). A partitioned machine that
// stops answering the failure detector's probes is fenced: the runtime
// declares it dead and recovers, which keeps the execution deterministic at
// the price of discarding a live machine.
type Partition struct {
	A, B     int
	From, To time.Duration
}

// Plan scripts the failures of one run. The zero value (and a nil *Plan)
// injects nothing.
type Plan struct {
	// Crashes are scripted fail-stop machine deaths.
	Crashes []Crash
	// LossRate is the probability a message attempt vanishes in transit.
	LossRate float64
	// DupRate is the probability a delivered message arrives twice; the
	// receiver drops the duplicate by sequence number.
	DupRate float64
	// Partitions are timed link outages.
	Partitions []Partition
	// Seed drives the deterministic loss/duplication decisions. Runs with
	// the same plan are bit-identical.
	Seed int64
}

// Active reports whether the plan injects any fault. Nil-safe.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return len(p.Crashes) > 0 || p.LossRate > 0 || p.DupRate > 0 || len(p.Partitions) > 0
}

// Validate checks the plan against a platform of n machines. Machine 0 is
// the control machine (main program, input logs, failure detector) and may
// not crash; rates are capped below 1 so retransmission terminates.
func (p *Plan) Validate(n int) error {
	if p == nil {
		return nil
	}
	seen := map[int]bool{}
	for _, c := range p.Crashes {
		if c.Machine <= 0 || c.Machine >= n {
			return fmt.Errorf("fault: crash of machine %d: must be in 1..%d (machine 0 is the control machine and cannot crash)", c.Machine, n-1)
		}
		if seen[c.Machine] {
			return fmt.Errorf("fault: machine %d crashes twice", c.Machine)
		}
		seen[c.Machine] = true
		if c.At < 0 {
			return fmt.Errorf("fault: crash of machine %d at negative time %v", c.Machine, c.At)
		}
	}
	if p.LossRate < 0 || p.LossRate > 0.9 {
		return fmt.Errorf("fault: loss rate %v outside [0, 0.9]", p.LossRate)
	}
	if p.DupRate < 0 || p.DupRate > 0.9 {
		return fmt.Errorf("fault: duplication rate %v outside [0, 0.9]", p.DupRate)
	}
	for _, pt := range p.Partitions {
		if pt.A < 0 || pt.A >= n || pt.B < 0 || pt.B >= n || pt.A == pt.B {
			return fmt.Errorf("fault: partition between machines %d and %d invalid for %d machines", pt.A, pt.B, n)
		}
		if pt.To < pt.From {
			return fmt.Errorf("fault: partition window [%v, %v) is empty", pt.From, pt.To)
		}
	}
	return nil
}

// Stats counts what the fault layer injected and what the runtime survived.
// The Network fills the injection-side counters; the distributed executor
// fills the detection/recovery side and merges both with Add.
type Stats struct {
	// CrashesInjected counts scripted machine deaths that fired.
	CrashesInjected int
	// CrashesDetected counts machines the failure detector declared dead.
	CrashesDetected int
	// FalseSuspicions counts live machines the detector declared dead (and
	// fenced) because loss or a partition swallowed their heartbeats.
	FalseSuspicions int
	// MessagesLost, MessagesDuplicated and DuplicatesDropped count the
	// injected message anomalies; every duplicate is idempotently dropped by
	// the receiver's sequence-number filter. Simulated runs only: a live
	// transport neither duplicates nor drops a message short of a dead
	// connection.
	MessagesLost       int
	MessagesDuplicated int
	DuplicatesDropped  int
	// MessagesBlocked counts sends into a partition or to a dead machine.
	MessagesBlocked int
	// MessagesRetried counts retransmissions by the simulated executor's
	// reliable send (ack/retry with exponential backoff). Simulated runs
	// only: a live run retransmits nothing, it recovers a dead member.
	MessagesRetried int
	// HeartbeatsSent counts failure-detector probe messages (pings + acks).
	HeartbeatsSent int
	// TasksReexecuted counts in-flight tasks of a dead machine re-placed and
	// re-run from their declared read sets; TasksReplayed counts committed
	// tasks deterministically replayed from logged inputs to re-derive an
	// object version that existed only on the dead machine.
	TasksReexecuted int
	TasksReplayed   int
	// ObjectsRebuilt counts directory entries reconstructed after a crash
	// (ownership promoted to a surviving copy, restored from a shadow, or
	// re-derived by replay).
	ObjectsRebuilt int
	// WorkersJoined and WorkersDrained count elastic-membership events on
	// a live run: workers admitted to a running coordinator and workers
	// that left gracefully (objects synced back before departure).
	WorkersJoined  int
	WorkersDrained int
	// RecoveryTime is the summed virtual-time unavailability window: from
	// each crash to the completion of its recovery.
	RecoveryTime time.Duration
}

// Add returns the field-wise sum of two Stats.
func (s Stats) Add(o Stats) Stats {
	s.CrashesInjected += o.CrashesInjected
	s.CrashesDetected += o.CrashesDetected
	s.FalseSuspicions += o.FalseSuspicions
	s.MessagesLost += o.MessagesLost
	s.MessagesDuplicated += o.MessagesDuplicated
	s.DuplicatesDropped += o.DuplicatesDropped
	s.MessagesBlocked += o.MessagesBlocked
	s.MessagesRetried += o.MessagesRetried
	s.HeartbeatsSent += o.HeartbeatsSent
	s.TasksReexecuted += o.TasksReexecuted
	s.TasksReplayed += o.TasksReplayed
	s.ObjectsRebuilt += o.ObjectsRebuilt
	s.WorkersJoined += o.WorkersJoined
	s.WorkersDrained += o.WorkersDrained
	s.RecoveryTime += o.RecoveryTime
	return s
}

// rng is a splitmix64 generator: tiny, deterministic, and consumed strictly
// in simulation event order, so every run of the same plan draws the same
// sequence.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// Network wraps a netmodel.Network with fault injection. It implements
// netmodel.Network — Send delivers reliably (for fault-unaware callers) —
// but the executor's data plane uses TrySend, which reports whether the
// individual attempt was delivered so the caller can retry.
//
// Stats semantics: the wrapper's Stats() counts *logical* messages — each
// delivered message once per link, no matter how many retransmissions or
// duplicates it took — while the wire-level attempt counts (every
// transmission, including lost sends and duplicates) remain on the inner
// network, available via WireStats. This is the contract the executor's
// ack/retry layer relies on: retried sends are counted once in ByLink.
type Network struct {
	inner     netmodel.Network
	eng       *sim.Engine
	plan      Plan
	rng       rng
	killed    []bool
	nextSeq   map[netmodel.Link]uint64
	delivered map[netmodel.Link]map[uint64]bool
	logical   netmodel.Stats
	stats     Stats
}

// Wrap builds a faulty view of inner for a platform of n machines. The plan
// must already be validated.
func Wrap(inner netmodel.Network, eng *sim.Engine, plan Plan, n int) *Network {
	return &Network{
		inner:     inner,
		eng:       eng,
		plan:      plan,
		rng:       rng{state: uint64(plan.Seed)*2654435761 + 0x9e3779b9},
		killed:    make([]bool, n),
		nextSeq:   map[netmodel.Link]uint64{},
		delivered: map[netmodel.Link]map[uint64]bool{},
	}
}

// Kill fences machine m: from now on it neither sends nor receives. The
// executor calls it both for scripted crashes and for detector fencing.
func (f *Network) Kill(m int) { f.killed[m] = true }

// Dead reports whether machine m has been killed.
func (f *Network) Dead(m int) bool { return f.killed[m] }

func (f *Network) partitioned(src, dst int) bool {
	now := time.Duration(f.eng.Now())
	for _, pt := range f.plan.Partitions {
		if ((pt.A == src && pt.B == dst) || (pt.A == dst && pt.B == src)) &&
			now >= pt.From && now < pt.To {
			return true
		}
	}
	return false
}

// TrySend attempts one transmission of size bytes from src to dst and
// reports whether it was delivered. A dead source transmits nothing (no wire
// cost); otherwise the bytes occupy the wire — charged on the inner network
// — and may then be swallowed by a dead destination, a partition, or random
// loss. A delivered message gets a per-link sequence number; an injected
// duplicate crosses the wire again and is dropped by the receiver's
// sequence-number filter.
func (f *Network) TrySend(p *sim.Proc, src, dst, size int) bool {
	if src == dst {
		return true
	}
	if f.killed[src] {
		return false
	}
	f.inner.Send(p, src, dst, size)
	if f.killed[dst] || f.partitioned(src, dst) {
		f.stats.MessagesBlocked++
		return false
	}
	if f.plan.LossRate > 0 && f.rng.float64() < f.plan.LossRate {
		f.stats.MessagesLost++
		return false
	}
	link := netmodel.Link{Src: src, Dst: dst}
	seq := f.nextSeq[link]
	f.nextSeq[link] = seq + 1
	f.addLogical(link, size)
	if f.plan.DupRate > 0 && f.rng.float64() < f.plan.DupRate {
		// The duplicate really crosses the wire; the receiver has already
		// recorded seq as delivered, so the copy is idempotently discarded.
		f.stats.MessagesDuplicated++
		f.inner.Send(p, src, dst, size)
		if f.delivered[link][seq] {
			f.stats.DuplicatesDropped++
		}
	}
	return true
}

func (f *Network) addLogical(link netmodel.Link, size int) {
	f.logical.Messages++
	f.logical.Bytes += int64(size)
	if f.logical.ByLink == nil {
		f.logical.ByLink = map[netmodel.Link]netmodel.LinkStats{}
	}
	ls := f.logical.ByLink[link]
	ls.Messages++
	ls.Bytes += int64(size)
	f.logical.ByLink[link] = ls
	dl := f.delivered[link]
	if dl == nil {
		dl = map[uint64]bool{}
		f.delivered[link] = dl
	}
	dl[f.nextSeq[link]-1] = true
}

// Send implements netmodel.Network by delivering reliably: it retries
// internally until the message gets through. Fault-aware callers should use
// TrySend and own their retry policy; Send exists so the wrapper is a
// drop-in Network. Sending from or to a dead machine is a no-op.
func (f *Network) Send(p *sim.Proc, src, dst, size int) {
	if src == dst || f.killed[src] || f.killed[dst] {
		return
	}
	for !f.TrySend(p, src, dst, size) {
		if f.killed[src] || f.killed[dst] {
			return
		}
	}
}

// Stats implements netmodel.Network with logical-message semantics: each
// delivered message counts once per link regardless of retries and
// duplicates. See WireStats for raw attempts.
func (f *Network) Stats() netmodel.Stats {
	s := f.logical
	if f.logical.ByLink != nil {
		s.ByLink = make(map[netmodel.Link]netmodel.LinkStats, len(f.logical.ByLink))
		for k, v := range f.logical.ByLink {
			s.ByLink[k] = v
		}
	}
	s.BusyTime = f.inner.Stats().BusyTime
	return s
}

// WireStats returns the inner network's counters: every transmission
// attempt, including lost sends and injected duplicates.
func (f *Network) WireStats() netmodel.Stats { return f.inner.Stats() }

// FaultStats returns the injection-side counters.
func (f *Network) FaultStats() Stats { return f.stats }

var _ netmodel.Network = (*Network)(nil)
