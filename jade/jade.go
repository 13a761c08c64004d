// Package jade is a Go implementation of Jade, the implicitly parallel
// coarse-grain programming language of Rinard, Scales and Lam
// ("Heterogeneous Parallel Programming in Jade", Supercomputing 1992).
//
// A Jade program is a serial, imperative program over shared objects,
// augmented with declarations of how each part of the program accesses
// data. The runtime extracts the concurrency automatically while
// deterministically preserving the serial semantics: every parallel
// execution produces exactly the result of running the program serially.
//
// The paper's constructs map to this API as follows:
//
//	double shared *v;                 →  v := jade.NewArray[float64](t, n, "v")
//	withonly { rd(a); wr(b) } do ...  →  t.WithOnly(func(s *jade.Spec) { s.Rd(a); s.Wr(b) },
//	                                         func(t *jade.Task) { ... })
//	with { rd(a) } cont;              →  t.WithCont(func(c *jade.Cont) { c.Rd(a) })
//	df_rd(a) / no_rd(a)               →  s.DfRd(a) / c.NoRd(a)
//
// The same program runs unmodified on three substrates:
//
//   - NewSMP: real parallelism with goroutines over the host's processors
//     (the paper's shared-memory implementations on SGI and Stanford DASH).
//   - NewSimulated: a deterministic discrete-event simulation of a
//     message-passing platform — homogeneous (iPSC/860), Ethernet
//     workstation farm (Mica), or heterogeneous with special-purpose
//     accelerators (HRV) — with object migration, replication, data format
//     conversion, dynamic load balancing and latency hiding.
//   - NewLive: real message passing over a pluggable transport — goroutine
//     pipes or TCP sockets — with worker processes joining over the network
//     (the paper's network-of-workstations implementation, for real).
package jade

import (
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/exec/dist"
	"repro/internal/exec/live"
	"repro/internal/exec/smp"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport/tcp"
)

// Platform describes a simulated machine collection (see DASH, IPSC860,
// Mica, HRV, Workstations, or build your own).
type Platform = machine.Platform

// MachineSpec describes one machine of a custom platform.
type MachineSpec = machine.Spec

// NetworkStats are cumulative network counters of a simulated run.
type NetworkStats = netmodel.Stats

// DeltaStats summarizes the simulated runtime's delta-transfer and
// message-coalescing layer.
type DeltaStats = rt.DeltaStats

// WorkerSlots is one live worker's slot accounting (capacity advertised
// at handshake vs. tasks currently charged to it), surfaced in
// Report.Workers.
type WorkerSlots = rt.WorkerSlots

// FaultPlan scripts failures for a simulated run: machine crashes at virtual
// times, message loss/duplication rates, and timed link partitions. The
// runtime detects the failures with virtual-time heartbeats and recovers by
// deterministic re-execution — results are bit-identical to a fault-free run.
type FaultPlan = fault.Plan

// Crash schedules the fail-stop death of one machine (FaultPlan.Crashes).
type Crash = fault.Crash

// Partition is a timed link outage (FaultPlan.Partitions).
type Partition = fault.Partition

// FaultStats counts injected failures and the recovery work they caused.
type FaultStats = fault.Stats

// Predefined platforms modeling the paper's evaluation environments (§7).
var (
	// DASH is the Stanford DASH shared-memory multiprocessor.
	DASH = machine.DASH
	// IPSC860 is the Intel iPSC/860 message-passing hypercube.
	IPSC860 = machine.IPSC860
	// Mica is the Sun Mica array: Sparc ELC boards on shared Ethernet.
	Mica = machine.Mica
	// HRV is the Sun High Resolution Video workstation: SPARC host with
	// camera hardware plus fast i860 accelerators (heterogeneous formats).
	HRV = machine.HRV
	// Workstations is a heterogeneous Ethernet network of SPARC and
	// DECStation workstations.
	Workstations = machine.Workstations
)

// Capability tags for TaskOptions.RequireCap on the HRV platform.
const (
	CapCamera      = machine.CapCamera
	CapAccelerator = machine.CapAccelerator
	CapDisplay     = machine.CapDisplay
)

// EngineStats are the dependency engine's counters.
type EngineStats = core.Stats

// Profile is the execution profile computed from the always-on event
// stream: per-task phase breakdowns, per-machine utilization, the critical
// path (T₁, T∞, speedup ceiling and the path's task/object composition)
// and hotspot attribution by object and task label.
type Profile = profile.Profile

// Runtime executes one Jade program. Create one with NewSMP or NewSimulated,
// call Run exactly once, then inspect results with Report and Final.
type Runtime struct {
	ex        rt.Exec
	simulated bool
	traced    bool
	wall      time.Duration
	runStart  time.Time
	obsSrv    *obs.Server

	// fleet is a live runtime's own workers and rendezvous (nil
	// otherwise, and on a service session, whose fleet is the service's).
	fleet *live.Fleet

	// runWrap, when non-nil, brackets the executor run (service sessions
	// use it to keep their lifecycle state truthful).
	runWrap func(run func() error) error
}

// ListenAddr returns the coordinator's bound TCP address for a live runtime
// with Transport "tcp" (useful with Listen "127.0.0.1:0" to learn the
// ephemeral port external jadeworkers should dial), or "" otherwise.
func (r *Runtime) ListenAddr() string { return r.fleet.Addr() }

// Feature names a runtime optimization that SimConfig.Disable can turn off
// for ablation experiments.
type Feature string

const (
	// FeatPrefetch is latency hiding: fetching a task's objects before the
	// task claims its processor.
	FeatPrefetch Feature = "prefetch"
	// FeatLocality is the locality scheduling heuristic (prefer machines
	// already holding a task's objects).
	FeatLocality Feature = "locality"
	// FeatDelta is delta transfers and dispatch coalescing: re-fetches
	// ship only changed words, and dispatch messages piggyback on object
	// transfers.
	FeatDelta Feature = "delta"
)

// ParseFeature converts a feature name (as accepted on jadebench's
// -disable flag) to a Feature.
func ParseFeature(s string) (Feature, error) {
	switch f := Feature(s); f {
	case FeatPrefetch, FeatLocality, FeatDelta:
		return f, nil
	}
	return "", fmt.Errorf("unknown feature %q (known: %s, %s, %s)", s, FeatPrefetch, FeatLocality, FeatDelta)
}

// SMPConfig configures the real shared-memory runtime.
type SMPConfig struct {
	// Procs is the number of processors to use (0 = all host CPUs).
	Procs int
	// MaxLiveTasks bounds outstanding tasks; creators inline children
	// above it (0 = 64 × Procs).
	MaxLiveTasks int
	// Trace records execution events (small overhead).
	Trace bool
}

// NewSMP returns a runtime executing on real goroutine parallelism.
func NewSMP(cfg SMPConfig) *Runtime {
	return &Runtime{ex: smp.New(smp.Options{
		Procs:        cfg.Procs,
		MaxLiveTasks: cfg.MaxLiveTasks,
		Trace:        cfg.Trace,
	}), traced: cfg.Trace}
}

// SimConfig configures the simulated message-passing runtime.
type SimConfig struct {
	// Platform is the machine collection to simulate (required).
	Platform Platform
	// MaxLiveTasks bounds outstanding tasks (0 = 256).
	MaxLiveTasks int
	// Disable lists runtime features to turn off for ablations (e.g.
	// jade.FeatPrefetch, jade.FeatLocality, jade.FeatDelta).
	Disable []Feature
	// Trace records execution events.
	Trace bool
	// Fault injects machine crashes, message loss/duplication and link
	// partitions (nil = fault-free). The runtime detects and recovers them;
	// the program's results are unchanged.
	Fault *FaultPlan
}

// NewSimulated returns a runtime executing on a simulated platform in
// deterministic virtual time.
func NewSimulated(cfg SimConfig) (*Runtime, error) {
	opts := dist.Options{
		Platform:     cfg.Platform,
		MaxLiveTasks: cfg.MaxLiveTasks,
		Trace:        cfg.Trace,
		Fault:        cfg.Fault,
	}
	for _, f := range cfg.Disable {
		switch f {
		case FeatPrefetch:
			opts.NoPrefetch = true
		case FeatLocality:
			opts.NoLocality = true
		case FeatDelta:
			opts.NoDelta = true
		default:
			return nil, fmt.Errorf("jade: SimConfig.Disable: unknown feature %q", f)
		}
	}
	x, err := dist.New(opts)
	if err != nil {
		return nil, err
	}
	return &Runtime{ex: x, simulated: true, traced: cfg.Trace}, nil
}

// LiveConfig configures the live message-passing runtime: a coordinator
// (machine 0, which runs the main program and the dependency engine) plus
// workers that execute task bodies, exchanging real protocol frames over a
// transport.
type LiveConfig struct {
	// Workers is the number of worker endpoints to start in this process
	// (each is machine 1..Workers). Required unless AwaitExternal > 0.
	Workers int
	// Transport selects the substrate: "inproc" (goroutine pipes, the
	// default) or "tcp" (real loopback sockets with framing and
	// heartbeats — the full wire path).
	Transport string
	// Listen is the TCP listen address for Transport "tcp". Empty means
	// "127.0.0.1:0" (an ephemeral loopback port). Give an explicit
	// address (e.g. ":7070") to let external jadeworker processes join.
	Listen string
	// AwaitExternal additionally waits for this many external jadeworker
	// processes to connect before NewLive returns (Transport "tcp" only).
	// External workers run task kinds registered with RegisterKind; Go
	// closures cannot cross a process boundary.
	AwaitExternal int
	// WorkerSlots is the number of tasks each in-process worker executes
	// concurrently (0 = 1).
	WorkerSlots int
	// MaxLiveTasks bounds outstanding tasks; creators inline children
	// above it (0 = 64 × workers).
	MaxLiveTasks int
	// Trace records execution events.
	Trace bool
	// WorkerCaps gives in-process worker i the capability tags
	// WorkerCaps[i] (shorter slices leave later workers untagged). Tasks
	// created with TaskOptions.RequireCap schedule only onto workers
	// advertising the tag — a heterogeneous fleet in one process, the
	// live analogue of the HRV platform's special-purpose machines.
	WorkerCaps [][]string
	// Obs starts a live observability endpoint alongside the coordinator
	// serving /metrics, /trace and /profile (nil = no endpoint). See
	// ObsConfig.
	Obs *ObsConfig
	// Elastic keeps the rendezvous open after NewLive returns: with
	// Transport "tcp", external jadeworkers dialing in late are admitted
	// mid-run; without it they are turned away. Membership changes the
	// program makes itself work either way: JoinWorkers adds in-process
	// workers, DrainWorker retires one gracefully, and KillWorker injects
	// a death the run recovers from (real connection failures are
	// detected the same way).
	Elastic bool
	// OnTaskDone, when non-nil, is called synchronously each time a
	// dispatched task retires, with the running total. Chaos and
	// elasticity tests use it to script membership changes at
	// deterministic points in the task stream.
	OnTaskDone func(done int)
}

// NewLive returns a runtime executing over real message passing. In-process
// workers are started immediately; with AwaitExternal > 0 the call blocks
// until every external worker has connected.
func NewLive(cfg LiveConfig) (*Runtime, error) {
	bodies := live.NewBodyTable()
	host := func(i int) live.WorkerOptions {
		opts := live.WorkerOptions{Name: fmt.Sprintf("local-%d", i+1), Bodies: bodies, Slots: cfg.WorkerSlots}
		if i < len(cfg.WorkerCaps) {
			opts.Caps = cfg.WorkerCaps[i]
		}
		return opts
	}
	fleet, conns, err := live.StartFleet(cfg.Transport, cfg.Listen, cfg.Workers, cfg.AwaitExternal, host)
	if err != nil {
		return nil, fmt.Errorf("jade: %w", err)
	}
	x, err := live.New(live.Options{
		Peers:        conns,
		Bodies:       bodies,
		MaxLiveTasks: cfg.MaxLiveTasks,
		Trace:        cfg.Trace,
		OnTaskDone:   cfg.OnTaskDone,
	})
	if err != nil {
		fleet.Close()
		return nil, err
	}
	late := x // an Elastic run admits late dials: redialing evicted workers, fresh jadeworkers
	if !cfg.Elastic {
		late = nil // any other run turns them away
	}
	fleet.AnswerLate(late)
	r := &Runtime{ex: x, traced: cfg.Trace, fleet: fleet}
	if cfg.Obs != nil {
		if err := r.startObs(*cfg.Obs); err != nil {
			// The executor has not run, so its connections are all it
			// holds: closing them ends the workers waiting for a welcome.
			for _, c := range conns {
				c.Close()
			}
			fleet.Close()
			return nil, err
		}
	}
	return r, nil
}

// KillWorker injects the fail-stop death of worker machine m on a live
// runtime: its session is fenced exactly as if the process had died, its
// in-flight tasks are re-executed elsewhere, and its directory state is
// rebuilt — the run continues and produces bit-identical results.
func (r *Runtime) KillWorker(m int) error {
	x, ok := r.ex.(*live.Exec)
	if !ok {
		return fmt.Errorf("jade: KillWorker requires a live runtime")
	}
	return x.KillWorker(m)
}

// DrainWorker gracefully retires worker machine m from a live runtime:
// no new tasks are placed on it, in-flight tasks finish (bringing home
// what they wrote), and the worker departs.
func (r *Runtime) DrainWorker(m int) error {
	x, ok := r.ex.(*live.Exec)
	if !ok {
		return fmt.Errorf("jade: DrainWorker requires a live runtime")
	}
	return x.Drain(m)
}

// JoinWorkers adds n fresh in-process workers to a running live runtime
// (elastic membership), on either transport and whether or not the
// runtime is Elastic. Placement immediately rebalances onto the new
// capacity. It returns after every new worker has completed the join
// handshake.
func (r *Runtime) JoinWorkers(n int) error {
	if r.fleet == nil {
		return fmt.Errorf("jade: JoinWorkers requires a live runtime with its own workers")
	}
	for i := 0; i < n; i++ {
		c, err := r.fleet.Join()
		if err == nil {
			_, err = r.ex.(*live.Exec).Admit(c)
		}
		if err != nil {
			return fmt.Errorf("jade: join: %w", err)
		}
	}
	return nil
}

// WorkerConfig configures a jadeworker endpoint joining a live run from its
// own process (see cmd/jadeworker).
type WorkerConfig struct {
	// Addr is the coordinator's TCP address (required).
	Addr string
	// Name identifies the worker in coordinator diagnostics.
	Name string
	// Caps are capability tags to advertise (TaskOptions.RequireCap).
	Caps []string
	// Slots is the number of concurrent task slots (0 = 1): serving a
	// session service, the machine total shared by all resident sessions.
	Slots int
	// Drain, when non-nil, requests a graceful departure when it becomes
	// readable (e.g. on SIGTERM): the worker finishes its in-flight
	// tasks and leaves the run.
	Drain <-chan struct{}
}

// ErrWorkerEvicted is returned by ServeWorker when the coordinator
// declared this worker dead (a failure-detector verdict — real or a
// false positive) and fenced its session. The worker may rejoin an
// elastic run as a brand-new member by calling ServeWorker again.
var ErrWorkerEvicted = live.ErrEvicted

// ServeWorker connects to a live coordinator (NewLive) or a session
// service (NewService) and executes dispatched tasks until the run or the
// service ends. Task bodies are resolved through kinds registered with
// RegisterKind. It blocks for the whole run. It returns nil when the run
// or the service ended in order, or ended before this worker's join was
// processed, or turned the worker away (one that admits no late member):
// all the same to the worker.
func ServeWorker(cfg WorkerConfig) error {
	if cfg.Addr == "" {
		return fmt.Errorf("jade: ServeWorker needs an address")
	}
	c, err := tcp.Dial(cfg.Addr)
	if err != nil {
		return err
	}
	return live.Serve(c, live.WorkerOptions{
		Name:  cfg.Name,
		Caps:  cfg.Caps,
		Slots: cfg.Slots,
		Leave: cfg.Drain,
	})
}

// KindFunc builds a task body from an opaque argument blob. Kinds are how
// live runs dispatch tasks to external worker processes: the kind name and
// arguments cross the wire instead of a Go closure.
type KindFunc func(args []byte) func(*Task)

// RegisterKind registers a task-kind constructor in the process-global
// registry. Register the same kinds (same names, same semantics) in the
// coordinator program and in every jadeworker binary — the paper's model of
// installing the program text on every machine ahead of time. Registering a
// duplicate name panics.
func RegisterKind(name string, fn KindFunc) {
	live.RegisterKind(name, func(args []byte) func(rt.TC) {
		body := fn(args)
		return func(tc rt.TC) {
			body(&Task{tc: tc})
		}
	})
}

// Run executes the main program. It returns when every task has completed,
// reporting the first access-specification violation or task panic, if any.
// Run must be called exactly once per Runtime.
func (r *Runtime) Run(main func(t *Task)) error {
	start := time.Now()
	r.runStart = start
	run := func() error {
		return r.ex.Run(func(tc rt.TC) {
			main(&Task{tc: tc, r: r})
		})
	}
	var err error
	if r.runWrap != nil {
		err = r.runWrap(run)
	} else {
		err = run()
	}
	r.wall = time.Since(start)
	if r.fleet != nil {
		// Run is once-only: nobody can join a finished run, and an open
		// listener would keep its socket and two goroutines for good.
		r.fleet.Close()
	}
	return err
}

// Makespan returns the program duration: virtual time for a simulated
// runtime, wall-clock time for the SMP runtime.
func (r *Runtime) Makespan() time.Duration {
	if r.simulated {
		return r.ex.Stats().Makespan
	}
	return r.wall
}

// TaskStats are headline task counters, populated from executor state
// regardless of trace mode.
type TaskStats struct {
	// Created and Completed are the dependency engine's task counts
	// (excluding the main program).
	Created, Completed uint64
	// Run counts executed task bodies, including inlined children and the
	// main program.
	Run int
	// Busy is per-machine (per processor slot on the SMP runtime) time
	// spent holding a processor.
	Busy []time.Duration
}

// Report is the unified metrics view of one finished run. Every section is
// populated from always-on counters — no field silently reads zero because
// tracing was off. Sections not applicable to the runtime (Net, Delta and
// Fault on the SMP runtime; Fault without a fault plan) are zero values.
type Report struct {
	// Makespan is the program duration (virtual time when simulated).
	Makespan time.Duration
	// Tasks are headline task counts and per-machine busy time.
	Tasks TaskStats
	// Engine holds the dependency engine's counters.
	Engine EngineStats
	// Net holds network transfer counters.
	Net NetworkStats
	// Delta holds delta-transfer and dispatch-coalescing counters.
	Delta DeltaStats
	// Fault holds failure-injection and recovery counters.
	Fault FaultStats
	// ConvertedWords counts data words format-converted in transit between
	// heterogeneous machines (zero on homogeneous platforms and on SMP).
	ConvertedWords int
	// Workers is per-worker slot accounting on a live runtime (nil
	// otherwise): advertised capacity against tasks currently charged,
	// in machine order — the view that makes quota starvation visible.
	Workers []WorkerSlots
	// Profile is the execution profile: phase breakdowns, machine
	// utilization, critical path (T₁, T∞, speedup ceiling) and hotspot
	// attribution, computed from the always-on event stream. With full
	// tracing the profile is exact; untraced runs profile the bounded
	// event ring and Profile.DroppedEvents reports any truncation.
	Profile *Profile
	// Latency is per-task-kind latency distributions (p50/p90/p99/max)
	// reconstructed from the always-on event stream: Total is
	// create→commit, Exec the processor-held span. Like Profile, it
	// covers the bounded ring window on untraced runs.
	Latency []LabelLatency
	// DroppedEvents is how many events the always-on ring overwrote
	// (zero with full tracing, or when the run fit the ring). Nonzero
	// means Profile, Latency and trace exports cover only a suffix of
	// the run — set Trace to keep every event.
	DroppedEvents uint64
}

// Report computes the unified metrics report for the finished run. It is
// the one metrics entry point, populated from always-on counters on every
// substrate — simulated runs report modeled traffic, live runs report the
// real frames and bytes that crossed the transport.
func (r *Runtime) Report() Report {
	es := r.ex.Engine().Stats()
	c := r.ex.Counters()
	st := r.ex.Stats()
	makespan := r.Makespan()
	rep := Report{
		Makespan: makespan,
		Tasks: TaskStats{
			Created:   es.TasksCreated,
			Completed: es.TasksCompleted,
			Run:       c.TasksRun,
			Busy:      c.Busy,
		},
		Engine:         es,
		Net:            st.Net,
		Delta:          st.Delta,
		Fault:          st.Fault,
		ConvertedWords: st.ConvertedWords,
		Workers:        st.Workers,
	}
	events, dropped := r.ex.Log().Snapshot()
	rep.Profile = profile.Compute(profile.Input{
		Events:      events,
		Dropped:     dropped,
		Makespan:    makespan,
		MachineBusy: c.Busy,
	})
	rep.Latency = obs.LatencyByLabel(events)
	rep.DroppedEvents = dropped
	return rep
}

// TraceLog returns the full event log (nil unless tracing was enabled).
func (r *Runtime) TraceLog() *trace.Log {
	if !r.traced {
		return nil
	}
	return r.ex.Log()
}

// TaskGraphDOT renders the dynamic task graph in Graphviz DOT format
// (requires tracing) — the paper's Figure 4.
func (r *Runtime) TaskGraphDOT(title string) string {
	return trace.TaskGraphDOT(r.ex.Log(), title)
}

// Task is the handle a running task body uses to declare children, refine
// its access specification, and access shared objects. The main program's
// Task is passed to Run's callback.
type Task struct {
	tc rt.TC
	r  *Runtime
}

// Machine returns the index of the machine (or processor slot) executing
// this task.
func (t *Task) Machine() int { return t.tc.Machine() }

// Charge accounts dynamic computational work (in abstract work units) to
// this task: virtual time in a simulated runtime, a no-op on real hardware.
func (t *Task) Charge(work float64) { t.tc.Charge(work) }

// TaskOptions carry optional scheduling information for WithOnlyOpts.
type TaskOptions struct {
	// Label names the task in traces and the task graph.
	Label string
	// Cost is the task's modeled computational work in work units
	// (simulated runtimes only).
	Cost float64
	// Machine pins the task to a machine index (§4.5); nil lets the
	// scheduler choose. Use jade.On.
	Machine *int
	// RequireCap restricts scheduling to machines offering a capability
	// (e.g. jade.CapCamera on the HRV platform).
	RequireCap string
	// Kind names a task kind registered with RegisterKind. On a live
	// runtime a kind task may run on external workers in other processes,
	// where Go closures cannot travel; the worker rebuilds the body from
	// Kind and KindArgs. When Kind is set the body passed to WithOnlyOpts
	// may be nil.
	Kind string
	// KindArgs is the opaque argument blob handed to the kind constructor.
	KindArgs []byte
}

// On is a convenience for TaskOptions.Machine: TaskOptions{Machine: jade.On(2)}.
func On(m int) *int { return &m }

// WithOnly is the paper's withonly-do construct: declare, via the declare
// callback, exactly how the task body will access shared objects, then run
// body as a parallel task under those rights. WithOnly returns as soon as
// the task is created; the body runs when its declared accesses become
// legal. Declaration code may inspect data and use arbitrary control flow,
// which is how Jade expresses dynamic, data-dependent concurrency.
func (t *Task) WithOnly(declare func(*Spec), body func(*Task)) {
	t.WithOnlyOpts(TaskOptions{}, declare, body)
}

// WithOnlyOpts is WithOnly with scheduling options.
func (t *Task) WithOnlyOpts(opts TaskOptions, declare func(*Spec), body func(*Task)) {
	s := &Spec{}
	declare(s)
	ro := rt.TaskOpts{
		Label:      opts.Label,
		Cost:       opts.Cost,
		RequireCap: opts.RequireCap,
		Kind:       opts.Kind,
		KindArgs:   opts.KindArgs,
	}
	if opts.Machine != nil {
		ro.Pin = *opts.Machine + 1
	}
	var rb func(rt.TC)
	if body != nil {
		r := t.r
		rb = func(tc rt.TC) {
			body(&Task{tc: tc, r: r})
		}
	}
	if err := t.tc.Create(s.decls, ro, rb); err != nil {
		panic(fmt.Sprintf("jade: withonly: %v", err))
	}
}

// WithCont is the paper's with-cont construct: refine this task's access
// specification mid-execution — convert deferred declarations to immediate
// ones (Cont.Rd/Wr, which may block) or retract rights (Cont.NoRd/NoWr,
// which may unblock later tasks).
func (t *Task) WithCont(declare func(*Cont)) {
	declare(&Cont{t: t})
}

// Spec collects a task's access declarations inside a WithOnly declare
// callback.
type Spec struct {
	decls []access.Decl
}

func (s *Spec) add(o Object, m access.Mode) {
	s.decls = append(s.decls, access.Decl{Object: o.objectID(), Mode: m})
}

// Rd declares that the task may read o.
func (s *Spec) Rd(o Object) { s.add(o, access.Read) }

// Wr declares that the task may write o.
func (s *Spec) Wr(o Object) { s.add(o, access.Write) }

// RdWr declares that the task may read and write o.
func (s *Spec) RdWr(o Object) { s.add(o, access.ReadWrite) }

// DfRd declares a deferred read: the task will not read o until it converts
// the declaration with a with-cont rd (§4.2). The declaration reserves the
// task's position in o's queue but does not delay the task's start.
func (s *Spec) DfRd(o Object) { s.add(o, access.DeferredRead) }

// DfWr declares a deferred write.
func (s *Spec) DfWr(o Object) { s.add(o, access.DeferredWrite) }

// DfRdWr declares a deferred read and write.
func (s *Spec) DfRdWr(o Object) { s.add(o, access.DeferredReadWrite) }

// Acc declares a commuting update (§4.3's higher-level access
// specifications): the task will update o in a way that commutes with other
// Acc tasks' updates — for example accumulating into a sum. Acc tasks may
// execute in either order; the runtime makes their actual accesses mutually
// exclusive. Use Array.Update to perform the access. Results are
// deterministic only if the updates truly commute (e.g. integer addition).
func (s *Spec) Acc(o Object) { s.add(o, access.Commute) }

// Cont executes with-cont access specification statements.
type Cont struct {
	t *Task
}

// Rd converts a deferred read on o into an immediate read, blocking until
// earlier conflicting tasks are done.
func (c *Cont) Rd(o Object) {
	if err := c.t.tc.Convert(o.objectID(), access.DeferredRead); err != nil {
		panic(fmt.Sprintf("jade: with-cont rd: %v", err))
	}
}

// Wr converts a deferred write on o into an immediate write.
func (c *Cont) Wr(o Object) {
	if err := c.t.tc.Convert(o.objectID(), access.DeferredWrite); err != nil {
		panic(fmt.Sprintf("jade: with-cont wr: %v", err))
	}
}

// RdWr converts deferred read and write rights on o.
func (c *Cont) RdWr(o Object) {
	if err := c.t.tc.Convert(o.objectID(), access.DeferredReadWrite); err != nil {
		panic(fmt.Sprintf("jade: with-cont rd_wr: %v", err))
	}
}

// NoRd declares that the task will no longer read o, releasing waiting
// writers immediately.
func (c *Cont) NoRd(o Object) {
	if err := c.t.tc.Retract(o.objectID(), access.AnyRead); err != nil {
		panic(fmt.Sprintf("jade: with-cont no_rd: %v", err))
	}
}

// NoWr declares that the task will no longer write o.
func (c *Cont) NoWr(o Object) {
	if err := c.t.tc.Retract(o.objectID(), access.AnyWrite); err != nil {
		panic(fmt.Sprintf("jade: with-cont no_wr: %v", err))
	}
}

// Object is any shared object reference (the paper's globally valid object
// identifiers behind the `shared` type qualifier).
type Object interface {
	objectID() access.ObjectID
}

// Elem is the element types shared arrays support. The set matches what the
// typed transport can re-encode between machine formats (internal/format) —
// Jade objects must be convertible to cross heterogeneous machines.
type Elem interface {
	byte | int32 | int64 | float32 | float64
}

// Array is a shared vector of E — the workhorse shared object (the paper's
// `double shared *column`). The handle is a value that task closures
// capture; the data lives in the runtime's (per-machine) stores.
type Array[E Elem] struct {
	id access.ObjectID
}

func (a *Array[E]) objectID() access.ObjectID { return a.id }

// ID returns the object's global identifier. IDs are how kind arguments
// name objects across a process boundary: encode ID() into
// TaskOptions.KindArgs and rebind with ArrayByID in the kind constructor.
func (a *Array[E]) ID() uint64 { return uint64(a.id) }

// ArrayByID rebinds a shared-array handle from a wire-carried identifier
// (see Array.ID). The element type must match the allocation; access panics
// otherwise.
func ArrayByID[E Elem](id uint64) *Array[E] {
	return &Array[E]{id: access.ObjectID(id)}
}

// NewArray allocates a zeroed shared array of length n. The allocating task
// gets implicit read/write rights.
func NewArray[E Elem](t *Task, n int, label string) *Array[E] {
	return NewArrayFrom(t, make([]E, n), label)
}

// NewArrayFrom allocates a shared array adopting data (no copy; the caller
// must not retain the slice).
func NewArrayFrom[E Elem](t *Task, data []E, label string) *Array[E] {
	id, err := t.tc.Alloc(data, label)
	if err != nil {
		panic(fmt.Sprintf("jade: alloc: %v", err))
	}
	return &Array[E]{id: id}
}

func (a *Array[E]) view(t *Task, m access.Mode, what string) []E {
	v, err := t.tc.Access(a.id, m)
	if err != nil {
		panic(fmt.Sprintf("jade: %s: %v", what, err))
	}
	s, ok := v.([]E)
	if !ok {
		panic(fmt.Sprintf("jade: %s: object #%d holds %T, not []%T", what, a.id, v, *new(E)))
	}
	return s
}

// Read returns a read view of the array. The task must have declared rd
// (or converted a df_rd). The caller must not modify the returned slice.
// Blocks while an earlier conflicting task (e.g. a child of this task) is
// still using the object.
func (a *Array[E]) Read(t *Task) []E { return a.view(t, access.Read, "read") }

// Write returns a write view. The task must have declared wr. Reading the
// view's previous contents is undeclared and undefined: on message-passing
// platforms a write-only declaration transfers ownership without moving the
// old bytes (the task gets a zeroed buffer), so a task that declares wr
// must fully overwrite the parts it wants defined — declare rd_wr to
// read-modify-write.
func (a *Array[E]) Write(t *Task) []E { return a.view(t, access.Write, "write") }

// ReadWrite returns a read-write view. The task must have declared rd_wr.
func (a *Array[E]) ReadWrite(t *Task) []E { return a.view(t, access.ReadWrite, "read-write") }

// Update performs a commuting update (declared with Spec.Acc): f receives
// an exclusive view of the current value and must apply an update that
// commutes with other Acc tasks' updates. Update blocks while another
// commuting task holds the object and releases it when f returns. Holding
// other Update views inside f risks lock-order deadlock — update one
// object at a time.
func (a *Array[E]) Update(t *Task, f func(v []E)) {
	v := a.view(t, access.Commute, "update")
	defer t.tc.EndAccess(a.id, access.Commute)
	f(v)
}

// Release ends all views this task holds of the array. Views end
// automatically when the task completes; call Release explicitly before
// creating a child task that conflicts with a view you still hold (the
// usual case: the main program initializes an array, then spawns tasks).
func (a *Array[E]) Release(t *Task) { t.tc.ClearAccess(a.id) }

// Final returns an array's value after the runtime has finished Run — the
// owning machine's version. Use it to verify results.
func Final[E Elem](r *Runtime, a *Array[E]) []E {
	v := r.ex.ObjectValue(a.id)
	if v == nil {
		return nil
	}
	return v.([]E)
}
