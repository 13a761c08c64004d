package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/jade"
)

const (
	servePayload   = 8192 // bytes per request payload: one 8 KB object push
	serveTemplates = 64   // distinct seeded payloads, cycled
	serveRate      = 400  // paced phase arrival rate, requests/s (≈40% of saturation)
	serveMaxStream = 1200 // requests per stream: the display array is re-logged per version
	serveBurst     = 400  // requests per closed burst
	// serveBurstRate is the drain rate assumed when fitting closed bursts
	// into their share of the round; it is not a measurement.
	serveBurstRate = 1500
	serveWarmBurst = 600
)

// serveTCP is the SV1 request DAG on live+tcp: per request a camera-pinned
// ingest task writes the payload, two transform tasks digest it in
// parallel, and a display-pinned egress task joins them and commits to the
// display in request order. Each round runs one open-loop paced stream,
// whose requests are timed from their due time, then closed bursts, whose
// summed wall gives the throughput: one burst's rate depends on whether the
// creator hit the live-task throttle, and swings between two modes.
type serveTCP struct {
	sloMs     float64
	templates [][]byte
	oracle    []int64 // display digest of request i, computed serially
}

func setupServe(seed int64, sloMs float64) (instance, error) {
	w := &serveTCP{sloMs: sloMs}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < serveTemplates; i++ {
		b := make([]byte, servePayload)
		rng.Read(b)
		w.templates = append(w.templates, b)
	}
	w.oracle = make([]int64, serveMaxStream)
	buf := make([]byte, servePayload)
	for i := range w.oracle {
		w.fill(buf, i)
		w.oracle[i] = digest(invert(buf), emboss(buf))
	}
	out := w.stream(&pass{report: true}, serveWarmBurst, 0)
	if out.err != nil {
		return nil, fmt.Errorf("warm-up burst: %w", out.err)
	}
	if out.wrong > 0 {
		return nil, fmt.Errorf("warm-up burst: %d digests differ from the serial oracle", out.wrong)
	}
	if want := streamTasks(serveWarmBurst); out.tasks != want {
		return nil, fmt.Errorf("warm-up burst ran %d tasks, want %d", out.tasks, want)
	}
	return w, nil
}

// streamTasks is the task count of an n-request stream: four per request
// plus the main program (checked against Report() in set-up).
func streamTasks(n int) int { return 4*n + 1 }

// fill writes request req's payload: its seeded template stamped with the
// request number, so no two requests of a stream carry the same bytes.
func (w *serveTCP) fill(dst []byte, req int) {
	copy(dst, w.templates[req%serveTemplates])
	binary.LittleEndian.PutUint64(dst, uint64(req))
}

func invert(img []byte) int64 {
	var sum int64
	for _, b := range img {
		sum = sum*131 + int64(255-b)
	}
	return sum
}

func emboss(img []byte) int64 {
	var sum int64
	prev := byte(128)
	for _, b := range img {
		sum = sum*137 + int64(byte(b-prev+128))
		prev = b
	}
	return sum
}

func digest(a, b int64) int64 { return a*1000003 + b }

// streamOut is one stream's measurements.
type streamOut struct {
	err    error
	n      int
	wrong  int       // requests whose digest differs from the oracle
	latMs  []float64 // per request: display commit minus due time
	okLat  []bool    // per request: digest matched
	lateMs []float64 // per request: how late the generator issued it
	wall   time.Duration
	tasks  int
	// completedAtEnd is how many requests had committed when the last one
	// was issued (paced phase backlog).
	completedAtEnd int
}

// stream serves n requests on a fresh live+tcp runtime. rate > 0 paces
// arrivals open-loop (request i is due at start + i/rate, whatever the
// backlog); rate 0 issues them back to back.
func (w *serveTCP) stream(p *pass, n int, rate float64) streamOut {
	out := streamOut{n: n}
	id, rec := p.nextOp(), p.rec
	root := rec.begin("op", -1, id, 0)
	defer func() { rec.end(root) }()

	caps := make([][]string, fleetWorkers)
	caps[0] = []string{jade.CapCamera}
	caps[1] = []string{jade.CapDisplay}
	sp := rec.begin("setup", root, id, 0)
	r, err := jade.NewLive(jade.LiveConfig{
		Workers: fleetWorkers, Transport: "tcp", WorkerCaps: caps, Trace: p.traced,
	})
	rec.end(sp)
	if err != nil {
		out.err = err
		return out
	}

	due := make([]time.Duration, n) // since start
	done := make([]atomic.Int64, n) // ns since start, stored by the egress body
	late := make([]time.Duration, n)
	digests := make([]int64, n)
	allocNs := make([]int64, n)
	issueNs := make([]int64, n)
	var start time.Time
	var drain int32
	err = r.Run(func(t *jade.Task) {
		camera := jade.NewArray[int64](t, 1, "camera")
		display := jade.NewArray[int64](t, n, "display")
		start = time.Now()
		for req := 0; req < n; req++ {
			req := req
			if rate > 0 {
				due[req] = time.Duration(float64(req) / rate * float64(time.Second))
				if wait := due[req] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
			}
			t0 := time.Since(start)
			late[req] = t0 - due[req]
			payload := jade.NewArray[byte](t, servePayload, "payload")
			partA := jade.NewArray[int64](t, 1, "partA")
			partB := jade.NewArray[int64](t, 1, "partB")
			t1 := time.Since(start)
			t.WithOnlyOpts(
				jade.TaskOptions{Label: "ingest", RequireCap: jade.CapCamera},
				func(s *jade.Spec) {
					s.RdWr(camera)
					s.Wr(payload)
				},
				func(t *jade.Task) {
					camera.ReadWrite(t)[0]++
					w.fill(payload.Write(t), req)
				})
			t.WithOnlyOpts(
				jade.TaskOptions{Label: "transformA"},
				func(s *jade.Spec) {
					s.Rd(payload)
					s.Wr(partA)
				},
				func(t *jade.Task) { partA.Write(t)[0] = invert(payload.Read(t)) })
			t.WithOnlyOpts(
				jade.TaskOptions{Label: "transformB"},
				func(s *jade.Spec) {
					s.Rd(payload)
					s.Wr(partB)
				},
				func(t *jade.Task) { partB.Write(t)[0] = emboss(payload.Read(t)) })
			t.WithOnlyOpts(
				jade.TaskOptions{Label: "egress", RequireCap: jade.CapDisplay},
				func(s *jade.Spec) {
					s.Rd(partA)
					s.Rd(partB)
					s.DfRdWr(display)
				},
				func(t *jade.Task) {
					d := digest(partA.Read(t)[0], partB.Read(t)[0])
					t.WithCont(func(c *jade.Cont) { c.RdWr(display) })
					display.ReadWrite(t)[req] = d
					done[req].Store(int64(time.Since(start)))
				})
			t2 := time.Since(start)
			allocNs[req], issueNs[req] = int64(t1-t0), int64(t2-t1)
		}
		for i := range done {
			if done[i].Load() > 0 {
				out.completedAtEnd++
			}
		}
		drain = rec.begin("drain", root, id, 0)
		copy(digests, display.Read(t))
		display.Release(t)
	})
	rec.end(drain)
	out.wall = time.Since(start)
	if err != nil {
		out.err = err
		return out
	}
	out.tasks = streamTasks(n)
	if p.report {
		sp := rec.begin("report", root, id, 0)
		rep := r.Report()
		rec.end(sp)
		out.tasks = rep.Tasks.Run
		p.mu.Lock()
		p.layers.addReport(rep, traceEvents(r))
		p.mu.Unlock()
	}
	rec.covered(3*n, 4*n)
	out.latMs = make([]float64, n)
	out.okLat = make([]bool, n)
	out.lateMs = make([]float64, n)
	var base int64 // the stream's start on the recorder's clock
	if rec != nil {
		base = int64(start.Sub(rec.epoch))
	}
	for req := 0; req < n; req++ {
		doneNs := done[req].Load()
		out.latMs[req] = float64(doneNs-int64(due[req])) / 1e6
		out.lateMs[req] = float64(late[req]) / 1e6
		out.okLat[req] = digests[req] == w.oracle[req]
		if !out.okLat[req] {
			out.wrong++
		}
		if rec != nil {
			// A request's span runs from its due time to its display
			// commit; the root task's alloc and issue calls are its
			// children.
			issued := base + int64(due[req]+late[req])
			q := rec.add("request", base+int64(due[req]), base+doneNs, root, id, 1)
			rec.add("alloc", issued, issued+allocNs[req], q, id, 1)
			rec.add("issue", issued+allocNs[req], issued+allocNs[req]+issueNs[req], q, id, 1)
		}
	}
	return out
}

func (w *serveTCP) round(dur time.Duration, p *pass) roundResult {
	var res roundResult
	nPaced := min(max(int(0.4*dur.Seconds()*serveRate), 8), serveMaxStream)
	bursts := max(int(0.55*dur.Seconds()*serveBurstRate/serveBurst), 1)
	nBurst := serveBurst
	if dur < time.Second {
		nBurst = 8 // a smoke run
	}

	paced := w.stream(p, nPaced, serveRate)
	res.attempted += nPaced
	res.judged += nPaced
	if paced.err != nil {
		res.failN(nPaced, fmt.Errorf("paced stream: %w", paced.err))
	} else {
		res.allTasks += paced.tasks
		for i, ms := range paced.latMs {
			if !paced.okLat[i] {
				res.fail(fmt.Errorf("paced request %d: digest differs from the serial oracle", i))
				continue
			}
			res.okMs = append(res.okMs, ms)
			if ms <= w.sloMs {
				res.within++
			}
		}
		if p.rec != nil {
			p.layers.serve.add(paced)
		}
	}

	for b := 0; b < bursts; b++ {
		burst := w.stream(p, nBurst, 0)
		res.attempted += nBurst
		switch {
		case burst.err != nil:
			res.failN(nBurst, fmt.Errorf("burst: %w", burst.err))
		case burst.wrong > 0:
			res.failN(burst.wrong, fmt.Errorf("burst: %d digests differ from the serial oracle", burst.wrong))
		default:
			res.tasks += burst.tasks
			res.wall += burst.wall
			res.allTasks += burst.tasks
			if p.rec != nil {
				p.layers.serve.burstReqs += nBurst
				p.layers.serve.burstWall += burst.wall
			}
		}
	}
	return res
}

func (w *serveTCP) close() {}

// serveAcc collects the serve.* layer samples of a traced pass.
type serveAcc struct {
	latMs, lateMs  []float64
	due, completed int
	burstReqs      int
	burstWall      time.Duration
}

func (a *serveAcc) add(s streamOut) {
	a.latMs = append(a.latMs, s.latMs...)
	a.lateMs = append(a.lateMs, s.lateMs...)
	a.due += s.n
	a.completed += s.completedAtEnd
}
