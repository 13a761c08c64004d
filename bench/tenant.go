package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/pmake"
	"repro/internal/apps/water"
	"repro/jade"
)

const (
	tenantClients     = 4 // one closed-loop client per tenant
	tenantMaxSessions = 2 // so one or two clients always wait at the gate
	tenantWarmOps     = 240
	tenantKinds       = 3   // cholesky, water, pmake
	tenantOrderLen    = 510 // seeded program order per client, cycled
)

// tenantMix is the multi-tenant workload: four clients, one per tenant,
// each looping OpenSession → one small program → read-back → Close against
// one long-lived service whose gate admits two sessions at a time.
type tenantMix struct {
	sloMs float64
	svc   *jade.Service
	order [tenantClients][]uint8 // program kind per op, drawn from -seed
	next  [tenantClients]int
	// tasksOf is each program kind's Report().Tasks.Run, read in set-up.
	tasksOf [tenantKinds]int

	mC, oC *cholesky.Matrix
	cfgW   water.Config
	oW     *water.State
	mf     *pmake.Makefile
	listO  []string

	// idleOpenMs is OpenSession's cost with the gate free, measured on
	// the idle service; a loaded open's excess over it is queue wait.
	idleOpenMs float64

	mu      sync.Mutex
	rebuild bool // an op failed: build a fresh service before the next round
	traced  bool // the running service was built with Trace on
}

func setupTenant(seed int64, sloMs float64) (instance, error) {
	w := &tenantMix{sloMs: sloMs}
	w.mC = cholesky.Symbolic(cholesky.GridLaplacian(4))
	w.oC = w.mC.Clone()
	cholesky.FactorSerial(w.oC)
	w.cfgW = water.Config{N: 27, Steps: 1, Tasks: 2, Seed: 7}.WithDefaults()
	w.oW = water.RunSerial(w.cfgW)
	src, proj := wideProject(4)
	mf, err := pmake.Parse(src)
	if err != nil {
		return nil, err
	}
	w.mf = mf
	if w.listO, err = pmake.BuildSerial(proj, mf, "prog"); err != nil {
		return nil, err
	}
	// The seed draws the order only: every block of six ops holds each
	// program kind twice, so the mix, and with it the tasks and bytes of
	// an average op, is the same for every seed.
	rng := rand.New(rand.NewSource(seed))
	block := []uint8{0, 0, 1, 1, 2, 2}
	for c := range w.order {
		for len(w.order[c]) < tenantOrderLen {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			w.order[c] = append(w.order[c], block...)
		}
	}
	if err := w.start(false); err != nil {
		return nil, err
	}
	// Learn each kind's task count and the idle open/close cost, then
	// warm up under the real client mix.
	learn := &pass{report: true}
	var opens []float64
	for k := 0; k < tenantKinds; k++ {
		for i := 0; i < 8; i++ {
			o, err := w.session(learn, 0, uint8(k))
			if err != nil {
				w.close()
				return nil, fmt.Errorf("warm-up kind %d: %w", k, err)
			}
			w.tasksOf[k] = o.tasks
			opens = append(opens, o.openMs)
		}
	}
	w.idleOpenMs = median(opens)
	warm := &pass{}
	var wg sync.WaitGroup
	errs := make([]error, tenantClients)
	for c := 0; c < tenantClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < tenantWarmOps/tenantClients; i++ {
				if _, _, err := w.op(warm, c); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

func (w *tenantMix) start(traced bool) error {
	var profiles []jade.TenantProfile
	for i := 0; i < tenantClients; i++ {
		profiles = append(profiles, jade.TenantProfile{Name: tenantName(i), SlotsPerWorker: serviceSlots})
	}
	svc, err := jade.NewService(jade.ServiceConfig{
		Workers:     fleetWorkers,
		Transport:   "inproc",
		WorkerSlots: serviceSlots,
		MaxSessions: tenantMaxSessions,
		Tenants:     profiles,
		Trace:       traced,
	})
	w.svc, w.traced = svc, traced
	return err
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%d", i) }

// sessionOut is what one session op measured.
type sessionOut struct {
	ms, openMs, closeMs float64
	tasks               int
}

// op runs client c's next session in its seeded program order.
func (w *tenantMix) op(p *pass, c int) (float64, int, error) {
	kind := w.order[c][w.next[c]%len(w.order[c])]
	w.next[c]++
	o, err := w.session(p, c, kind)
	if err != nil {
		w.mu.Lock()
		w.rebuild = true
		w.mu.Unlock()
	}
	return o.ms, o.tasks, err
}

// session is one op: open, run one program, read back and check, close.
// Latency covers OpenSession (gate wait included) through Close.
func (w *tenantMix) session(p *pass, c int, kind uint8) (o sessionOut, err error) {
	id, lane, rec := p.nextOp(), int32(c), p.rec
	root := rec.begin("op", -1, id, lane)
	defer func() { rec.end(root) }()
	start := time.Now()

	open := rec.begin("open", root, id, lane)
	s, err := w.svc.OpenSession(tenantName(c))
	rec.end(open)
	if err != nil {
		return o, err
	}
	o.openMs = float64(time.Since(start)) / 1e6
	if rec != nil && open >= 0 {
		// From outside, gate wait is the open's excess over an idle open.
		if wait := o.openMs - w.idleOpenMs; wait > 0 {
			st := rec.spans[open].start
			rec.add("queue_wait", st, st+int64(wait*1e6), open, id, lane)
		}
	}

	run := rec.begin("run", root, id, lane)
	err = w.program(s, kind)
	rec.end(run)
	runEnd := time.Now()
	o.tasks = w.tasksOf[kind]
	if err == nil && p.report {
		sp := rec.begin("report", root, id, lane)
		rep := s.Report()
		rec.end(sp)
		o.tasks = rep.Tasks.Run
		p.mu.Lock()
		p.layers.addReport(rep, traceEvents(s.Runtime))
		p.mu.Unlock()
	}
	closeStart := time.Now()
	sp := rec.begin("close", root, id, lane)
	cerr := s.Close()
	rec.end(sp)
	end := time.Now()
	if err == nil {
		err = cerr
	}
	o.closeMs = float64(end.Sub(closeStart)) / 1e6
	// Report() sits between run and close and is not part of the op.
	o.ms = float64(runEnd.Sub(start))/1e6 + o.closeMs
	return o, err
}

// program runs MT1's small program of the given kind on the session and
// compares the read-back to the kind's serial oracle.
func (w *tenantMix) program(s *jade.Session, kind uint8) error {
	switch kind {
	case 0:
		var jm *cholesky.JadeMatrix
		if err := s.Run(func(t *jade.Task) {
			jm = cholesky.ToJade(t, w.mC, 0)
			jm.Factor(t)
		}); err != nil {
			return err
		}
		if got := cholesky.FromJade(s.Runtime, jm); !reflect.DeepEqual(got.Cols, w.oC.Cols) {
			return fmt.Errorf("cholesky differs from the serial oracle")
		}
	case 1:
		got, err := water.RunJade(s.Runtime, w.cfgW)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, w.oW) {
			return fmt.Errorf("water state differs from the serial oracle")
		}
	default: // a fresh project: a build mutates it
		_, proj := wideProject(4)
		list, err := pmake.BuildJade(s.Runtime, proj, w.mf, "prog", 2e-6)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(list, w.listO) {
			return fmt.Errorf("build order differs from the serial oracle")
		}
	}
	return nil
}

func (w *tenantMix) round(dur time.Duration, p *pass) roundResult {
	if w.rebuild || w.traced != p.traced {
		w.svc.Close()
		w.rebuild = false
		if err := w.start(p.traced); err != nil {
			res := roundResult{attempted: 1, judged: 1}
			res.fail(fmt.Errorf("rebuilding the service: %w", err))
			return res
		}
	}
	var before jade.ServiceReport
	if p.report {
		before = w.svc.Report()
	}
	res := closedLoop(tenantClients, dur, w.sloMs, func(c int) (float64, int, error) {
		return w.op(p, c)
	})
	if p.report {
		after := w.svc.Report()
		p.layers.sessionsOpened += after.SessionsOpened - before.SessionsOpened
		p.layers.sessionsQueued += after.SessionsQueued - before.SessionsQueued
		p.layers.sessionBytes += after.Bytes - before.Bytes
		p.layers.peakActive = after.PeakActive
	}
	return res
}

func (w *tenantMix) close() {
	if w.svc != nil {
		w.svc.Close()
	}
}

// wideProject builds a makefile with n independent compilations linked into
// one program, plus its source files (MT1's parallel-make input).
func wideProject(n int) (string, *pmake.Project) {
	p := pmake.NewProject()
	prog, link, rules := "prog:", "\tlink", ""
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("m%02d", i)
		prog += " " + name + ".o"
		link += " " + name + ".o"
		rules += name + ".o: " + name + ".c\n\tcc " + name + ".c\n"
		src := make([]byte, 3000+137*i)
		for k := range src {
			src[k] = byte('a' + (k+i)%26)
		}
		p.WriteFile(name+".c", src)
	}
	return prog + "\n" + link + "\n" + rules, p
}
