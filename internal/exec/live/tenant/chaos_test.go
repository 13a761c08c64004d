package tenant_test

// Chaos and isolation property tests for the multi-tenant session
// service. The chaos test is the acceptance criterion of DESIGN.md
// §4.15: killing one shared daemon while sessions from several tenants
// are resident must make every affected session independently detect
// the loss and recover to bit-identical results — one tenant's crash
// handling must never leak into another's. The property test drives
// randomized session populations and kill schedules and asserts the
// isolation invariants directly: no object id ever appears outside its
// session's range, and the shared slot ledgers stay exact.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/exec/live/livetest"
	"repro/internal/exec/live/tenant"
	"repro/internal/rt"
)

// anchorMark is the value each chain's first link writes into its
// session's anchor object; the final state must preserve it exactly.
const anchorMark = int64(42)

// chainProgram runs a serialized chain of nTasks read-modify-write
// tasks over one counter on session s and returns the final counter and
// anchor values. The chain retires gradually, so a mid-run kill always
// catches sessions with work outstanding. A nonzero pinFirst pins the
// first link to that machine (§4.5 placement control); that link also
// writes the session's anchor object, making the pinned machine the
// anchor's owner. Links ≥ 3 re-write the anchor with the same mark: the
// coordinator stages them from its own cache (a writer's bytes come home
// with its completion, so nothing is ever fetched from the owner), but
// moving the write to another machine invalidates the owner's copy, so once
// the script (which fires strictly before link 3 can dispatch, under the
// MinPerSession park) has killed that machine, the session's own staging
// path hits the fenced connection and detects the crash —
// deterministically, in-band, not as a race against goroutine scheduling
// on a single-CPU host.
func chainProgram(s *tenant.Session, nTasks, pinFirst int) (int64, int64, error) {
	var ctr, anchor access.ObjectID
	err := s.Run(func(tc rt.TC) {
		var err error
		if ctr, err = tc.Alloc([]int64{0}, "chain"); err != nil {
			panic(err)
		}
		if anchor, err = tc.Alloc([]int64{0}, "anchor"); err != nil {
			panic(err)
		}
		for i := 0; i < nTasks; i++ {
			i := i
			opts := rt.TaskOpts{Label: fmt.Sprintf("link%d", i)}
			decls := []access.Decl{{Object: ctr, Mode: access.ReadWrite}}
			switch {
			case i == 0:
				if pinFirst > 0 {
					opts.Pin = pinFirst + 1 // TaskOpts.Pin is machine index + 1
				}
				decls = append(decls, access.Decl{Object: anchor, Mode: access.ReadWrite})
			case i >= 3:
				decls = append(decls, access.Decl{Object: anchor, Mode: access.ReadWrite})
			}
			if err := tc.Create(decls, opts,
				func(ctc rt.TC) {
					v, err := ctc.Access(ctr, access.ReadWrite)
					if err != nil {
						panic(err)
					}
					v.([]int64)[0] += int64(i + 1)
					switch {
					case i == 0:
						a, err := ctc.Access(anchor, access.ReadWrite)
						if err != nil {
							panic(err)
						}
						a.([]int64)[0] = anchorMark
					case i >= 3:
						a, err := ctc.Access(anchor, access.ReadWrite)
						if err != nil {
							panic(err)
						}
						if got := a.([]int64)[0]; got != anchorMark {
							panic(fmt.Sprintf("anchor = %d, want %d", got, anchorMark))
						}
						a.([]int64)[0] = anchorMark
					}
				}); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return s.X.ObjectValue(ctr).([]int64)[0], s.X.ObjectValue(anchor).([]int64)[0], nil
}

// inRange asserts every id sits inside session sid's private 2³² range.
func inRange(t *testing.T, where string, sid uint64, ids []access.ObjectID) {
	t.Helper()
	lo := access.ObjectID(sid) << 32
	hi := lo + (1 << 32)
	for _, id := range ids {
		if id < lo || id >= hi {
			t.Errorf("%s: session %d holds foreign object %#x (range [%#x, %#x))", where, sid, id, lo, hi)
		}
	}
}

// TestTenantChaosKillRecoversEverySession: four sessions from two
// tenants run long serialized chains over a 3-daemon fleet; the script
// fences daemon 2 early in the combined stream. Every session must
// detect the crash itself, recover independently, and still produce the
// serial answer.
func TestTenantChaosKillRecoversEverySession(t *testing.T) {
	const nTasks = 40
	c, err := livetest.NewTenant(livetest.TenantOptions{
		Daemons:     3,
		WorkerSlots: 2,
		Profiles: []tenant.Profile{
			{Name: "a", SlotsPerWorker: 2},
			{Name: "b", SlotsPerWorker: 2},
		},
		// Fence daemon 2 only once every session has retired ≥2 tasks —
		// the MinPerSession park holds all four mid-run (≥38 tasks
		// outstanding each) until the fence has landed.
		Script: []livetest.TenantStep{{AfterDone: 8, MinPerSession: 2, Kill: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Svc.Close()

	sessions := make([]*tenant.Session, 4)
	for i := range sessions {
		ten := "a"
		if i >= 2 {
			ten = "b"
		}
		if sessions[i], err = c.Open(ten); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	sums := make([]int64, len(sessions))
	anchors := make([]int64, len(sessions))
	errs := make([]error, len(sessions))
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *tenant.Session) {
			defer wg.Done()
			// Pin every chain's first link to machine 2 — the daemon the
			// script kills — so every session's anchor object is owned by
			// that daemon when the fence lands (machine i maps to daemon i
			// while the whole fleet is alive); the post-kill anchor reads
			// then force each session onto the fenced connection.
			sums[i], anchors[i], errs[i] = chainProgram(s, nTasks, 2)
		}(i, s)
	}
	wg.Wait()
	c.Wait()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if c.Fired() != 1 {
		t.Fatalf("fired %d steps, want 1", c.Fired())
	}
	want := int64(nTasks * (nTasks + 1) / 2)
	for i, s := range sessions {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", s.ID(), errs[i])
		}
		if sums[i] != want {
			t.Errorf("session %d sum = %d, want %d (serial)", s.ID(), sums[i], want)
		}
		if anchors[i] != anchorMark {
			t.Errorf("session %d anchor = %d, want %d (lost in recovery)", s.ID(), anchors[i], anchorMark)
		}
		if fs := s.X.Stats().Fault; fs.CrashesDetected < 1 {
			t.Errorf("session %d (tenant %s) never detected the daemon kill", s.ID(), s.Tenant())
		}
		inRange(t, "coordinator", s.ID(), s.X.ObjectIDs())
		s.Close()
	}
	rep := c.Svc.Report()
	if rep.CrashesDetected < len(sessions) {
		t.Fatalf("fleet CrashesDetected = %d, want ≥ %d (one per session)", rep.CrashesDetected, len(sessions))
	}
}

// TestTenantIsolationProperty: randomized session populations (sessions
// per tenant, chain lengths, quotas) under randomized kill schedules.
// Whatever the interleaving: results match the serial oracle, no object
// id from one session appears in another session's coordinator state or
// in any daemon's per-session cache, and the shared slot ledgers stay
// exact (quota peaks within caps, holds summing, everything released on
// surviving daemons).
func TestTenantIsolationProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 7919))
			nDaemons := 2 + rng.Intn(2)
			nTenants := 2 + rng.Intn(2)
			nSessions := 3 + rng.Intn(4)
			var profiles []tenant.Profile
			for i := 0; i < nTenants; i++ {
				profiles = append(profiles, tenant.Profile{
					Name: fmt.Sprintf("t%d", i), SlotsPerWorker: 1 + rng.Intn(2),
				})
			}
			var script []livetest.TenantStep
			if rng.Intn(2) == 1 && nDaemons > 1 {
				script = append(script, livetest.TenantStep{
					AfterDone: 3 + rng.Intn(6),
					Kill:      1 + rng.Intn(nDaemons),
				})
			}
			c, err := livetest.NewTenant(livetest.TenantOptions{
				Daemons:     nDaemons,
				WorkerSlots: 2,
				Profiles:    profiles,
				Script:      script,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Svc.Close()

			sessions := make([]*tenant.Session, nSessions)
			lengths := make([]int, nSessions)
			for i := range sessions {
				lengths[i] = 10 + rng.Intn(20)
				if sessions[i], err = c.Open(fmt.Sprintf("t%d", i%nTenants)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			sums := make([]int64, nSessions)
			errs := make([]error, nSessions)
			for i, s := range sessions {
				wg.Add(1)
				go func(i int, s *tenant.Session) {
					defer wg.Done()
					sums[i], _, errs[i] = chainProgram(s, lengths[i], 0)
				}(i, s)
			}
			wg.Wait()
			c.Wait()
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
			for i, s := range sessions {
				if errs[i] != nil {
					t.Fatalf("session %d: %v", s.ID(), errs[i])
				}
				if want := int64(lengths[i] * (lengths[i] + 1) / 2); sums[i] != want {
					t.Errorf("session %d sum = %d, want %d (serial)", s.ID(), sums[i], want)
				}
				inRange(t, "coordinator", s.ID(), s.X.ObjectIDs())
			}
			// Daemon-side isolation: every cached object id belongs to
			// the session it is filed under, across live and finished
			// sessions alike.
			for di, ms := range c.Svc.Servers() {
				for sid, objs := range ms.SessionObjects() {
					inRange(t, fmt.Sprintf("daemon %d cache", di+1), sid, objs)
				}
				l := ms.Ledger()
				if l.Violation != "" {
					t.Errorf("daemon %d slot ledger violation: %s", di+1, l.Violation)
				}
				for name, u := range l.PerTenant {
					if u.Cap > 0 && u.Peak > u.Cap {
						t.Errorf("daemon %d tenant %s peaked at %d slots, cap %d", di+1, name, u.Peak, u.Cap)
					}
				}
				if !c.Killed(di+1) && l.Held != 0 {
					t.Errorf("daemon %d still holds %d slots after all sessions finished", di+1, l.Held)
				}
			}
			for _, s := range sessions {
				s.Close()
			}
		})
	}
}
