package jade

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/exec/live"
	"repro/internal/exec/live/tenant"
	"repro/internal/obs"
)

// TenantProfile declares one tenant's resource envelope for a session
// service: per-worker slot quota and concurrent-session cap.
type TenantProfile = tenant.Profile

// ServiceReport is the fleet-level aggregate of a session service:
// admission counters, per-tenant rollups, and each daemon's slot ledger.
type ServiceReport = tenant.ServiceReport

// ErrBusy is returned by Service.OpenSession when the service is at its
// session cap and the admission queue is full.
var ErrBusy = tenant.ErrBusy

// ServiceConfig configures a multi-tenant session service.
type ServiceConfig struct {
	// Workers is the shared daemon fleet size (0 = 4).
	Workers int
	// Transport is "inproc" (default) or "tcp".
	Transport string
	// Listen is the tcp listen address ("" = "127.0.0.1:0"). Give an
	// explicit address to let external `jadeworker` daemons join.
	Listen string
	// AwaitExternal waits for this many external daemons on top of the
	// in-process fleet (Transport "tcp" only).
	AwaitExternal int
	// WorkerSlots is each daemon's total concurrent task capacity,
	// shared across every resident session (0 = 2).
	WorkerSlots int
	// MaxSessions caps concurrently-admitted sessions fleet-wide
	// (0 = unlimited). Beyond it OpenSession blocks.
	MaxSessions int
	// MaxQueue bounds OpenSession callers waiting for admission (0 = 64);
	// beyond it OpenSession fails fast with ErrBusy.
	MaxQueue int
	// Tenants declares the known tenants and their quotas. Sessions
	// under an undeclared tenant get DefaultSlotsPerWorker and no
	// session cap.
	Tenants []TenantProfile
	// DefaultSlotsPerWorker is the implicit per-worker slot quota for
	// undeclared tenants (0 = uncapped).
	DefaultSlotsPerWorker int
	// MaxLiveTasks bounds outstanding tasks per session (0 = default).
	MaxLiveTasks int
	// Trace records execution events on every session.
	Trace bool
	// Obs starts a live observability endpoint for the whole service
	// (nil = none): /metrics serves fleet-level counters plus per-tenant
	// latency, and every path accepts ?session=ID to scope to one
	// admitted session's metrics, trace ring, or profile.
	Obs *ObsConfig
}

// Service is a multi-tenant session service: many independent Jade
// programs share one worker fleet, each session isolated in its own
// executor and object-id range, with admission control and per-tenant
// quotas between them. Open sessions with OpenSession, run programs on
// them exactly as on a dedicated runtime, inspect the fleet with Report.
type Service struct {
	svc    *tenant.Service
	obsSrv *obs.Server
	traced bool
}

// NewService starts the shared fleet and returns the service.
func NewService(cfg ServiceConfig) (*Service, error) {
	svc, err := tenant.NewService(tenant.Options{
		Workers:               cfg.Workers,
		Transport:             cfg.Transport,
		Listen:                cfg.Listen,
		AwaitExternal:         cfg.AwaitExternal,
		WorkerSlots:           cfg.WorkerSlots,
		MaxSessions:           cfg.MaxSessions,
		MaxQueue:              cfg.MaxQueue,
		Profiles:              cfg.Tenants,
		DefaultSlotsPerWorker: cfg.DefaultSlotsPerWorker,
		MaxLiveTasks:          cfg.MaxLiveTasks,
		Trace:                 cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	s := &Service{svc: svc, traced: cfg.Trace}
	if cfg.Obs != nil {
		if err := s.startObs(*cfg.Obs); err != nil {
			svc.Close()
			return nil, err
		}
	}
	return s, nil
}

// sessionExec resolves an obs ?session= value to an admitted session's
// executor.
func (s *Service) sessionExec(session string) (*live.Exec, error) {
	if session == "" {
		return nil, fmt.Errorf("a service trace or profile needs ?session=ID (task ids are per-session)")
	}
	id, err := strconv.ParseUint(session, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad session %q (want a numeric session id)", session)
	}
	ts, ok := s.svc.SessionByID(id)
	if !ok {
		return nil, obs.ErrNoSession
	}
	return ts.X, nil
}

// startObs wires the service's fleet state into an obs endpoint.
func (s *Service) startObs(cfg ObsConfig) error {
	srv, err := obs.Serve(cfg.Addr, obs.Handlers{
		Metrics: func(session string) ([]obs.Metric, error) {
			if session == "" {
				return s.fleetMetrics(), nil
			}
			x, err := s.sessionExec(session)
			if err != nil {
				return nil, err
			}
			return execMetrics(x, 0), nil
		},
		Trace: func(session string, w io.Writer) error {
			x, err := s.sessionExec(session)
			if err != nil {
				return err
			}
			return writeTrace(w, x, "session "+session, ObsOptions{})
		},
		Profile: func(session string, w io.Writer) error {
			x, err := s.sessionExec(session)
			if err != nil {
				return err
			}
			return writeProfile(w, x, 0)
		},
	})
	if err != nil {
		return err
	}
	s.obsSrv = srv
	return nil
}

// fleetMetrics renders the service-level report as metric families.
func (s *Service) fleetMetrics() []obs.Metric {
	r := s.svc.Report()
	counter := func(name, help string, v float64) obs.Metric {
		return obs.Metric{Name: name, Help: help, Type: "counter",
			Samples: []obs.Sample{{Value: v}}}
	}
	ms := []obs.Metric{
		counter("jade_service_sessions_opened_total", "OpenSession calls", float64(r.SessionsOpened)),
		counter("jade_service_sessions_admitted_total", "sessions past admission", float64(r.SessionsAdmitted)),
		counter("jade_service_sessions_rejected_total", "ErrBusy load-sheds", float64(r.SessionsRejected)),
		counter("jade_service_sessions_closed_total", "retired sessions", float64(r.SessionsClosed)),
		{Name: "jade_service_sessions_active", Help: "currently admitted sessions", Type: "gauge",
			Samples: []obs.Sample{{Value: float64(r.Active)}}},
		counter("jade_service_tasks_run_total", "tasks run across all sessions", float64(r.TasksRun)),
		counter("jade_service_frames_total", "protocol frames across all sessions", float64(r.Frames)),
		counter("jade_service_bytes_total", "wire bytes across all sessions", float64(r.Bytes)),
	}
	var active []obs.Sample
	for name, tr := range r.Tenants {
		active = append(active, obs.Sample{
			Labels: [][2]string{{"tenant", name}},
			Value:  float64(tr.Active),
		})
	}
	if len(active) > 0 {
		obs.SortSamples(active)
		ms = append(ms, obs.Metric{Name: "jade_service_tenant_sessions_active",
			Type: "gauge", Samples: active})
	}
	for _, ll := range r.Latency {
		base := [][2]string{{"label", ll.Label}}
		ms = append(ms, obs.HistogramMetric("jade_service_task_latency_seconds",
			"create-to-commit task latency by label, all tenants", base, ll.Total)...)
	}
	return ms
}

// ObsAddr returns the observability endpoint's bound address ("" when
// none was configured).
func (s *Service) ObsAddr() string {
	if s.obsSrv == nil {
		return ""
	}
	return s.obsSrv.Addr()
}

// Session is one admitted Jade program on the shared fleet. It embeds a
// Runtime, so the full programming API — Run, WithOnly, NewArray,
// Report, Final — works unchanged; the only addition is Close, which
// releases the session's admission slot.
type Session struct {
	*Runtime
	ts *tenant.Session
}

// OpenSession admits one session for the named tenant, blocking while
// the service is at capacity (bounded by MaxQueue, then ErrBusy).
func (s *Service) OpenSession(tenantName string) (*Session, error) {
	ts, err := s.svc.OpenSession(tenantName)
	if err != nil {
		return nil, err
	}
	r := &Runtime{ex: ts.X, traced: s.traced}
	r.runWrap = func(run func() error) error {
		if err := ts.BeginRun(); err != nil {
			return err
		}
		defer ts.EndRun()
		return run()
	}
	return &Session{Runtime: r, ts: ts}, nil
}

// ID returns the session id (also the high 32 bits of its object ids).
func (s *Session) ID() uint64 { return s.ts.ID() }

// Tenant returns the owning tenant's name.
func (s *Session) Tenant() string { return s.ts.Tenant() }

// Close drains the session and frees its admission slot, waking queued
// OpenSession callers. Idempotent. An untraced session's event window ends
// here: its ring goes back to the service, and Report or a trace export
// read after Close sees no events, all counted as dropped.
func (s *Session) Close() error { return s.ts.Close() }

// Addr returns the tcp address external `jadeworker` daemons should
// dial ("" on inproc).
func (s *Service) Addr() string { return s.svc.Addr() }

// KillWorker fences daemon d (0-based): every session with state there
// independently detects the loss and recovers, exactly as a dedicated
// runtime recovers a dead worker.
func (s *Service) KillWorker(d int) error { return s.svc.KillWorker(d) }

// Report snapshots the fleet: admission counters, per-tenant usage, and
// each daemon's slot ledger.
func (s *Service) Report() ServiceReport { return s.svc.Report() }

// Close shuts the service down. Close sessions first for a clean exit.
func (s *Service) Close() error {
	if s.obsSrv != nil {
		s.obsSrv.Close()
		s.obsSrv = nil
	}
	return s.svc.Close()
}
