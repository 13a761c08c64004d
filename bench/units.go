package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/access"
	"repro/internal/apps/cholesky"
	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/transport/mux"
	"repro/internal/transport/tcp"
	"repro/internal/transport/wire"
	"repro/jade"
)

// unitLoops times each package's public calls from outside, one loop of
// about dur per metric, and returns the U metrics by name. The figures are
// per-call CPU costs at GOMAXPROCS=1; they do not depend on the workload.
func unitLoops(dur time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	steps := []func(time.Duration, map[string]float64) error{
		unitHost, unitCore, unitWire, unitInproc, unitTCP, unitMux, unitFormat, unitTrace, unitObs, unitTenant,
	}
	for _, step := range steps {
		if err := step(dur, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// timeLoop calls fn in batches of batch calls until dur has passed and
// returns the median batch's ns per call; a batch that a GC cycle or a
// host stall lands in does not move the figure.
func timeLoop(dur time.Duration, batch int, fn func()) float64 {
	var per []float64
	deadline := time.Now().Add(dur)
	for len(per) < 3 || time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start))/float64(batch))
	}
	return median(per)
}

// allocsPerCall is the mean heap allocations of one fn call.
func allocsPerCall(fn func()) float64 {
	const n = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// unitHost measures the host, not the program: a compute loop that lives
// in the L2 cache and an allocation loop that lives in the memory system
// and the collector. Read them beside a run's other figures to see whether
// the host was slow while it ran.
func unitHost(dur time.Duration, m map[string]float64) error {
	buf := make([]uint64, 16*1024) // 128 KB
	var h uint64 = 1469598103934665603
	m["host.spin_ns_per_kb"] = timeLoop(dur, 20, func() {
		for i := range buf {
			h = (h ^ buf[i]) * 1099511628211
			buf[i] = h
		}
	}) / 128
	m["host.alloc_ns_per_kb"] = timeLoop(dur, 2000, func() {
		hostSink = make([]byte, 8192)
		hostSink[0] = byte(h)
	}) / 8
	return nil
}

// hostSink keeps unitHost's allocations on the heap.
var hostSink []byte

func unitCore(dur time.Duration, m map[string]float64) error {
	var err error
	cycle := func(hot bool) float64 {
		e := core.New(core.Hooks{Ready: func(*core.Task) {}})
		root := e.Root()
		i := 0
		defer func() { m["core.lock_acq_per_cycle"] = float64(e.Stats().LockAcquisitions) / float64(i) }()
		return timeLoop(dur, 2000, func() {
			decl := access.Decl{Object: access.ObjectID(i%64 + 1), Mode: access.ReadWrite}
			if hot {
				decl = access.Decl{Object: 1, Mode: access.Read}
			}
			i++
			t, cerr := e.Create(root, []access.Decl{decl}, nil)
			if cerr == nil {
				cerr = e.Start(t)
			}
			if cerr == nil {
				cerr = e.Complete(t)
			}
			if cerr != nil {
				err = cerr
			}
		})
	}
	m["core.cycle_hot_ns"] = cycle(true)
	m["core.cycle_ns"] = cycle(false) // last, so lock_acq_per_cycle is the disjoint cycle's

	e := core.New(core.Hooks{Ready: func(*core.Task) {}})
	t, cerr := e.Create(e.Root(), []access.Decl{{Object: 1, Mode: access.ReadWrite}}, nil)
	if cerr == nil {
		cerr = e.Start(t)
	}
	if cerr != nil {
		return cerr
	}
	m["core.access_ns"] = timeLoop(dur, 2000, func() {
		ok, aerr := e.Access(t, 1, access.ReadWrite, nil)
		if aerr != nil || !ok {
			err = fmt.Errorf("core.Access: ok=%v err=%v", ok, aerr)
		}
		e.EndAccess(t, 1, access.ReadWrite)
	})
	return err
}

// unitFrames are the two frame shapes the wire and transport loops use: a
// dispatch-sized control frame and one carrying a 4 KB object image.
func unitFrames() (small, big *wire.Frame) {
	small = &wire.Frame{Type: wire.TDispatch, Req: 7, Task: 1234, Obj: 99, A: 1, B: 2, Label: "external(3,7)"}
	big = &wire.Frame{Type: wire.TDispatch, Task: 1234, Obj: 99, Label: "col17", Payload: make([]byte, 4096)}
	return small, big
}

func unitWire(dur time.Duration, m map[string]float64) error {
	var err error
	small, big := unitFrames()
	for _, c := range []struct {
		suffix string
		f      *wire.Frame
	}{{"", small}, {"_4k", big}} {
		buf := make([]byte, 0, 8192)
		encode := func() {
			if buf, err = wire.AppendFrame(buf[:0], c.f); err != nil {
				return
			}
		}
		m["wire.encode"+c.suffix+"_ns"] = timeLoop(dur, 2000, encode)
		decode := func() {
			if _, derr := wire.DecodeOwned(buf); derr != nil {
				err = derr
			}
		}
		m["wire.decode"+c.suffix+"_ns"] = timeLoop(dur, 2000, decode)
		if c.suffix == "" {
			m["wire.encode_allocs"] = allocsPerCall(encode)
			m["wire.decode_allocs"] = allocsPerCall(decode)
		}
	}
	return err
}

// connLoops measures a message substrate through its Conn: the round trip
// of one dispatch-sized frame against an echoing peer, and the frame rate
// of a one-way saturated stream. a and b are the two ends.
func connLoops(dur time.Duration, a, b transport.Conn) (rttUs, framesPerS float64, err error) {
	small, _ := unitFrames()
	msg, err := wire.Encode(small)
	if err != nil {
		return 0, 0, err
	}
	// Echo phase: b returns every message until it sees the stop frame.
	stop, err := wire.Encode(&wire.Frame{Type: wire.TBye})
	if err != nil {
		return 0, 0, err
	}
	isStop := func(msg []byte) bool { return len(msg) > 2 && msg[2] == wire.TBye }
	echoed := make(chan error, 1)
	go func() {
		for {
			got, rerr := b.Recv()
			if rerr != nil || isStop(got) {
				echoed <- rerr
				return
			}
			if rerr = b.Send(got); rerr != nil {
				echoed <- rerr
				return
			}
		}
	}()
	rttNs := timeLoop(dur, 200, func() {
		if serr := a.Send(msg); serr != nil {
			err = serr
			return
		}
		if _, rerr := a.Recv(); rerr != nil {
			err = rerr
		}
	})
	if serr := a.Send(stop); serr != nil && err == nil {
		err = serr
	}
	if eerr := <-echoed; eerr != nil && err == nil {
		err = eerr
	}
	if err != nil {
		return 0, 0, err
	}
	// Stream phase: a sends batches back to back, b drains and
	// acknowledges each batch, so every frame is both sent and received
	// inside the timed interval.
	const batch = 2000
	drained := make(chan error, 1)
	ack := make(chan struct{})
	go func() {
		n := 0
		for {
			got, rerr := b.Recv()
			if rerr != nil || isStop(got) {
				drained <- rerr
				return
			}
			transport.PutBuf(got) // the receiver owns the slice, as the executor does
			if n++; n == batch {
				n = 0
				ack <- struct{}{}
			}
		}
	}()
	perFrameNs := timeLoop(dur, 1, func() {
		for i := 0; i < batch; i++ {
			if serr := a.Send(msg); serr != nil {
				err = serr
				return
			}
		}
		select {
		case <-ack:
		case derr := <-drained: // the receiver died: do not wait for an ack that will not come
			err = fmt.Errorf("stream receiver stopped early: %v", derr)
			drained <- derr
		}
	}) / batch
	if serr := a.Send(stop); serr != nil && err == nil {
		err = serr
	}
	if derr := <-drained; derr != nil && err == nil {
		err = derr
	}
	return rttNs / 1e3, 1e9 / perFrameNs, err
}

func unitInproc(dur time.Duration, m map[string]float64) error {
	a, b := inproc.Pipe()
	defer a.Close()
	defer b.Close()
	var err error
	m["inproc.rtt_us"], m["inproc.stream_frames_per_s"], err = connLoops(dur, a, b)
	return err
}

// tcpPair dials one loopback session and returns both ends.
func tcpPair() (l *tcp.Listener, a, b transport.Conn, dialMs float64, err error) {
	if l, err = tcp.Listen("127.0.0.1:0"); err != nil {
		return nil, nil, nil, 0, err
	}
	start := time.Now()
	if a, err = tcp.Dial(l.Addr()); err != nil {
		l.Close()
		return nil, nil, nil, 0, err
	}
	if b, err = l.Accept(); err != nil {
		a.Close()
		l.Close()
		return nil, nil, nil, 0, err
	}
	return l, a, b, float64(time.Since(start)) / 1e6, nil
}

func unitTCP(dur time.Duration, m map[string]float64) error {
	var dials []float64
	deadline := time.Now().Add(dur)
	for len(dials) < 3 || time.Now().Before(deadline) {
		l, a, b, ms, err := tcpPair()
		if err != nil {
			return err
		}
		dials = append(dials, ms)
		a.Close()
		b.Close()
		l.Close()
	}
	m["tcp.dial_ms"] = median(dials)
	l, a, b, _, err := tcpPair()
	if err != nil {
		return err
	}
	defer l.Close()
	defer a.Close()
	defer b.Close()
	m["tcp.rtt_us"], m["tcp.stream_frames_per_s"], err = connLoops(dur, a, b)
	return err
}

func unitMux(dur time.Duration, m map[string]float64) error {
	pa, pb := inproc.Pipe()
	svc, daemon := mux.New(pa), mux.New(pb)
	defer svc.Close()
	defer daemon.Close()
	var err error
	id := uint64(0)
	m["mux.open_us"] = timeLoop(dur, 50, func() {
		id++
		c, oerr := svc.Open(id, "tenant-0", serviceSlots)
		if oerr != nil {
			err = oerr
			return
		}
		s, aerr := daemon.Accept()
		if aerr != nil {
			err = aerr
			return
		}
		c.Close()
		s.Conn.Close()
	}) / 1e3
	if err != nil {
		return err
	}
	c, err := svc.Open(id+1, "tenant-0", serviceSlots)
	if err != nil {
		return err
	}
	s, err := daemon.Accept()
	if err != nil {
		return err
	}
	m["mux.rtt_us"], _, err = connLoops(dur, c, s.Conn)
	return err
}

func unitFormat(dur time.Duration, m map[string]float64) error {
	// An 8 KB object with 1% of its words changed, scattered.
	const words = 1024
	old, cur := make([]int64, words), make([]int64, words)
	for i := range old {
		old[i] = int64(i) * 2654435761
		cur[i] = old[i]
	}
	for i := 0; i < words/100; i++ {
		cur[(i*97+13)%words]++
	}
	patch, _, ok := format.Diff(old, cur, format.LittleEndian)
	if !ok {
		return fmt.Errorf("format.Diff refused a 1%% patch")
	}
	kb := float64(words*8) / 1024
	m["format.patch_ratio"] = float64(len(patch)) / float64(format.WireSize(cur))
	m["format.diff_ns_per_kb"] = timeLoop(dur, 50, func() { format.Diff(old, cur, format.LittleEndian) }) / kb
	var err error
	m["format.apply_ns_per_kb"] = timeLoop(dur, 50, func() {
		if _, aerr := format.ApplyPatch(old, patch, format.LittleEndian); aerr != nil {
			err = aerr
		}
	}) / kb
	return err
}

func unitTrace(dur time.Duration, m map[string]float64) error {
	ev := trace.Event{Kind: trace.TaskCreated, Task: 42, Object: 7, Src: -1, Dst: -1, Label: "external(3,7)"}
	// The always-on ring in steady state: full, every Add overwrites.
	ring := trace.NewRing(4096)
	for i := 0; i < 4096; i++ {
		ring.Add(ev)
	}
	m["trace.add_ns"] = timeLoop(dur, 2000, func() { ring.Add(ev) })
	// The unbounded log of Trace: true, restarted per batch so it stays
	// the size of one run's log.
	var full *trace.Log
	n := 0
	m["trace.add_full_ns"] = timeLoop(dur, 2000, func() {
		if n%20000 == 0 {
			full = trace.New()
		}
		n++
		full.Add(ev)
	})
	return nil
}

func unitObs(dur time.Duration, m map[string]float64) error {
	var h obs.Histogram
	d := time.Duration(0)
	m["obs.hist_record_ns"] = timeLoop(dur, 2000, func() {
		d += 977 * time.Nanosecond
		h.Record(d % (50 * time.Millisecond))
	})
	// One traced chol_smp run supplies a real event stream.
	r := jade.NewSMP(jade.SMPConfig{Procs: fleetWorkers, Trace: true})
	mat := cholesky.Symbolic(cholesky.GridLaplacian(cholGrid))
	if err := r.Run(func(t *jade.Task) { cholesky.ToJade(t, mat, 0).Factor(t) }); err != nil {
		return err
	}
	events := r.TraceLog().Events()
	kev := float64(len(events)) / 1000
	makespan := r.Makespan()
	var err error
	m["obs.chrome_ms_per_kevent"] = timeLoop(dur, 1, func() {
		if werr := obs.WriteChrome(io.Discard, obs.Input{Events: events, Makespan: makespan}, obs.Options{}); werr != nil {
			err = werr
		}
	}) / 1e6 / kev
	m["profile.compute_ms_per_kevent"] = timeLoop(dur, 1, func() {
		profile.Compute(profile.Input{Events: events, Makespan: makespan})
	}) / 1e6 / kev
	return err
}

func unitTenant(dur time.Duration, m map[string]float64) error {
	// An idle service with the gate free: open and close cost alone.
	w := &tenantMix{}
	if err := w.start(false); err != nil {
		return err
	}
	defer w.close()
	var opens, closes []float64
	deadline := time.Now().Add(2 * dur)
	for len(opens) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		s, err := w.svc.OpenSession(tenantName(0))
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := s.Close(); err != nil {
			return err
		}
		opens = append(opens, float64(t1.Sub(t0))/1e3)
		closes = append(closes, float64(time.Since(t1))/1e3)
	}
	m["tenant.open_us"], m["tenant.close_us"] = median(opens), median(closes)
	return nil
}
