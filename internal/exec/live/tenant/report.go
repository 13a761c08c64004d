package tenant

import (
	"sort"

	"repro/internal/exec/live"
	"repro/internal/obs"
)

// ServiceReport is the fleet-level aggregate: admission counters, the
// per-tenant rollup, and each in-process daemon's slot ledger.
type ServiceReport struct {
	// SessionsOpened counts OpenSession calls (admitted + rejected).
	SessionsOpened int
	// SessionsAdmitted counts sessions that got past admission.
	SessionsAdmitted int
	// SessionsQueued counts OpenSession calls that had to wait.
	SessionsQueued int
	// SessionsRejected counts ErrBusy load-sheds (queue full).
	SessionsRejected int
	// Active is the current admitted-session count; PeakActive its
	// high-water mark (the admission-control exactness check: it must
	// never exceed Options.MaxSessions).
	Active     int
	PeakActive int
	// SessionsClosed counts retired sessions.
	SessionsClosed int

	// TasksRun / Frames / Bytes aggregate every session, active and
	// closed. TasksRun counts each session's main program as one task,
	// matching the executor's own counter.
	TasksRun int
	Frames   int
	Bytes    int64
	// CrashesDetected sums each session's independent loss detections.
	CrashesDetected int

	// Tenants breaks the same totals down per tenant.
	Tenants map[string]TenantReport
	// Workers is one entry per in-process daemon: its shared slot
	// ledger with per-tenant holds, peaks, and any invariant violation.
	Workers []WorkerReport
	// Latency is the fleet-wide per-task-label latency rollup: every
	// tenant's sessions merged, active and closed, sorted by label.
	Latency []obs.LabelLatency
}

// TenantReport is one tenant's slice of the fleet.
type TenantReport struct {
	Profile  Profile
	Active   int
	Sessions int // lifetime sessions (active + closed)
	TasksRun int
	Frames   int
	Bytes    int64
	Crashes  int
	// Latency is the tenant's per-task-label latency rollup, merged
	// across its sessions (active ones contribute their current ring
	// window; closed ones the snapshot captured at retirement).
	Latency []obs.LabelLatency
}

// WorkerReport pairs a daemon's name with its slot ledger.
type WorkerReport struct {
	Name   string
	Ledger live.SlotLedger
}

// Report snapshots the service. Active sessions contribute their
// current counters; closed sessions contribute the totals captured at
// retirement.
func (s *Service) Report() ServiceReport {
	s.mu.Lock()
	r := ServiceReport{
		SessionsOpened:   s.counters.opened,
		SessionsAdmitted: s.counters.admitted,
		SessionsQueued:   s.counters.queued,
		SessionsRejected: s.counters.rejected,
		Active:           len(s.active),
		PeakActive:       s.counters.peakActive,
		SessionsClosed:   s.counters.closedSessions,
		Tenants:          map[string]TenantReport{},
	}
	latAcc := map[string]obs.Latencies{}
	for name, tot := range s.retired {
		tr := r.Tenants[name]
		tr.Profile = s.profileFor(name)
		tr.Sessions += tot.sessions
		tr.TasksRun += tot.tasksRun
		tr.Frames += tot.frames
		tr.Bytes += tot.bytes
		tr.Crashes += tot.crashes
		r.Tenants[name] = tr
		latAcc[name] = obs.Latencies{}
		latAcc[name].Merge(tot.latency)
	}
	resident := make([]*Session, 0, len(s.active))
	for _, sess := range s.active {
		resident = append(resident, sess)
	}
	s.mu.Unlock()

	// Executor stats take the executor's own locks; gather them outside
	// s.mu so a busy session cannot stall OpenSession.
	for _, sess := range resident {
		cnt := sess.X.Counters()
		st := sess.X.Stats()
		tr := r.Tenants[sess.tenant]
		if tr.Profile.Name == "" {
			tr.Profile = s.profileFor(sess.tenant)
		}
		tr.Active++
		tr.Sessions++
		tr.TasksRun += cnt.TasksRun
		tr.Frames += st.Net.Messages
		tr.Bytes += st.Net.Bytes
		tr.Crashes += st.Fault.CrashesDetected
		r.Tenants[sess.tenant] = tr
		if latAcc[sess.tenant] == nil {
			latAcc[sess.tenant] = obs.Latencies{}
		}
		latAcc[sess.tenant].Fold(sess.X.Log().Each)
	}
	fleetLat := obs.Latencies{}
	for name, acc := range latAcc {
		tr := r.Tenants[name]
		tr.Latency = acc.Sorted()
		r.Tenants[name] = tr
		fleetLat.Merge(acc)
	}
	r.Latency = fleetLat.Sorted()
	for _, tr := range r.Tenants {
		r.TasksRun += tr.TasksRun
		r.Frames += tr.Frames
		r.Bytes += tr.Bytes
		r.CrashesDetected += tr.Crashes
	}
	for i, ms := range s.fleet.Servers() {
		name := "daemon"
		if i < len(s.daemons) {
			name = s.daemons[i].name
		}
		r.Workers = append(r.Workers, WorkerReport{Name: name, Ledger: ms.Ledger()})
	}
	sort.Slice(r.Workers, func(i, j int) bool { return r.Workers[i].Name < r.Workers[j].Name })
	return r
}
