package jade_test

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/exec/exectest"
	"repro/jade"
)

// TestLiveRuntimes runs the same fan-out/fan-in program over both live
// substrates and checks Report carries real traffic.
func TestLiveRuntimes(t *testing.T) {
	for _, tr := range []string{"inproc", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			r, err := jade.NewLive(jade.LiveConfig{Workers: 2, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			runSum(t, r)
			rep := r.Report()
			if rep.Net.Messages == 0 || rep.Net.Bytes == 0 {
				t.Fatalf("Report().Net = %+v, want real frames", rep.Net)
			}
			if rep.Tasks.Run < 4 {
				t.Fatalf("Report().Tasks.Run = %d, want >= 4", rep.Tasks.Run)
			}
			if rep.Makespan <= 0 {
				t.Fatalf("Report().Makespan = %v", rep.Makespan)
			}
		})
	}
}

// TestLiveTCPRunLeavesNoGoroutines: a finished tcp run gives back everything
// it started — in particular its listener, whose accept loop and
// late-connection loop used to outlive every run (+2 goroutines and one
// socket each). Elastic and non-elastic runtimes alike.
func TestLiveTCPRunLeavesNoGoroutines(t *testing.T) {
	for _, elastic := range []bool{false, true} {
		before := runtime.NumGoroutine()
		for run := 0; run < 3; run++ {
			r, err := jade.NewLive(jade.LiveConfig{Workers: 2, Transport: "tcp", Elastic: elastic})
			if err != nil {
				t.Fatal(err)
			}
			runSum(t, r)
		}
		if err := exectest.AwaitGoroutines(before, 5*time.Second); err != nil {
			t.Fatalf("elastic=%v, three runs: %v", elastic, err)
		}
	}
}

func init() {
	// The doubler kind used by TestLiveExternalWorker; registered in both
	// "processes" (coordinator and worker share this test binary, as a real
	// deployment shares the program text).
	jade.RegisterKind("jadetest-double", func(args []byte) func(*jade.Task) {
		a := jade.ArrayByID[int64](binary.LittleEndian.Uint64(args))
		return func(tk *jade.Task) {
			v := a.ReadWrite(tk)
			for i := range v {
				v[i] *= 2
			}
		}
	})
}

// freeAddr reserves an ephemeral loopback port and releases it for the
// coordinator to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestLiveExternalWorker exercises the jadeworker path end to end: an
// external worker (own process group, no shared closures) joins over TCP,
// and a task declared by kind with a required capability runs there.
func TestLiveExternalWorker(t *testing.T) {
	addr := freeAddr(t)
	done := make(chan struct{})
	defer close(done)
	go func() {
		// Retry until the coordinator is listening; stop when the test ends.
		for {
			select {
			case <-done:
				return
			default:
			}
			jade.ServeWorker(jade.WorkerConfig{Addr: addr, Name: "ext", Caps: []string{"fpga"}})
			time.Sleep(5 * time.Millisecond)
		}
	}()
	r, err := jade.NewLive(jade.LiveConfig{
		Workers:       1,
		Transport:     "tcp",
		Listen:        addr,
		AwaitExternal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ListenAddr() == "" {
		t.Fatal("ListenAddr empty on a tcp live runtime")
	}
	var got []int64
	err = r.Run(func(tk *jade.Task) {
		a := jade.NewArrayFrom(tk, []int64{1, 2, 3}, "v")
		a.Release(tk)
		tk.WithOnlyOpts(jade.TaskOptions{
			Label:      "double",
			Kind:       "jadetest-double",
			KindArgs:   binary.LittleEndian.AppendUint64(nil, a.ID()),
			RequireCap: "fpga",
		}, func(s *jade.Spec) { s.RdWr(a) }, nil)
		got = append([]int64(nil), a.Read(tk)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 4, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("array = %v, want %v", got, want)
		}
	}
}

// activeWorkers counts the active members in a live runtime's report.
func activeWorkers(r *jade.Runtime) int {
	n := 0
	for _, w := range r.Report().Workers {
		if w.State == "active" {
			n++
		}
	}
	return n
}

// TestLiveExternalWorkerJoinsMidRun: an external worker that dials an
// Elastic tcp runtime after the run has started is admitted, and a kind
// task only it can run runs there.
func TestLiveExternalWorkerJoinsMidRun(t *testing.T) {
	r, err := jade.NewLive(jade.LiveConfig{Workers: 1, Transport: "tcp", Elastic: true})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	var got []int64
	err = r.Run(func(tk *jade.Task) {
		go func() {
			served <- jade.ServeWorker(jade.WorkerConfig{Addr: r.ListenAddr(), Name: "late", Caps: []string{"fpga"}})
		}()
		deadline := time.Now().Add(5 * time.Second)
		for activeWorkers(r) < 2 {
			if time.Now().After(deadline) {
				t.Error("the late worker was not admitted within 5s")
				return
			}
			time.Sleep(time.Millisecond)
		}
		a := jade.NewArrayFrom(tk, []int64{1, 2, 3}, "v")
		a.Release(tk)
		tk.WithOnlyOpts(jade.TaskOptions{
			Label:      "double",
			Kind:       "jadetest-double",
			KindArgs:   binary.LittleEndian.AppendUint64(nil, a.ID()),
			RequireCap: "fpga",
		}, func(s *jade.Spec) { s.RdWr(a) }, nil)
		got = append([]int64(nil), a.Read(tk)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("late worker: %v", err)
	}
	if want := []int64{2, 4, 6}; !slices.Equal(got, want) {
		t.Fatalf("array = %v, want %v", got, want)
	}
	if f := r.Report().Fault; f.WorkersJoined != 1 {
		t.Fatalf("WorkersJoined = %d, want 1", f.WorkersJoined)
	}
}

// TestJoinWorkersOnTCP: JoinWorkers admits on tcp as on inproc, Elastic or
// not, and the new member is active by the time it returns.
func TestJoinWorkersOnTCP(t *testing.T) {
	r, err := jade.NewLive(jade.LiveConfig{Workers: 1, Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	var before, after int
	var joinErr error
	runErr := r.Run(func(tk *jade.Task) {
		before = activeWorkers(r)
		joinErr = r.JoinWorkers(1)
		after = activeWorkers(r)
	})
	if runErr != nil || joinErr != nil {
		t.Fatalf("run: %v, join: %v", runErr, joinErr)
	}
	if after != before+1 {
		t.Fatalf("active workers %d before JoinWorkers(1), %d after", before, after)
	}
}

// TestNewLiveObsFailureLeavesNoGoroutines: a tcp runtime whose obs
// endpoint cannot start fails NewLive, and gives back the fleet it started
// — the listener and the workers waiting for a welcome — with it.
func TestNewLiveObsFailureLeavesNoGoroutines(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	before := runtime.NumGoroutine()
	r, err := jade.NewLive(jade.LiveConfig{Workers: 2, Transport: "tcp", Obs: &jade.ObsConfig{Addr: taken.Addr().String()}})
	if err == nil {
		r.Run(func(*jade.Task) {})
		t.Fatalf("NewLive served obs on %s, an address in use", taken.Addr())
	}
	if err := exectest.AwaitGoroutines(before, 5*time.Second); err != nil {
		t.Fatalf("after NewLive failed: %v", err)
	}
}

// errAny is a want of TestServeWorkerOutcomes: some error, whichever.
var errAny = errors.New("any error")

// TestServeWorkerOutcomes: what ServeWorker — the one worker entry point,
// for a run and a session service alike — returns for each way its
// connection can end, and that none of them leaves a goroutine behind.
// Every row serves with the same configuration, on the address its peer
// listens at.
func TestServeWorkerOutcomes(t *testing.T) {
	cfg := jade.WorkerConfig{Name: "ext", Caps: []string{"fpga"}, Slots: 2}
	rows := []struct {
		name string
		want error // nil, an error ServeWorker's must match, or errAny
		// run stands up the peer, serves it with cfg at its address, and
		// returns what ServeWorker returned.
		run func(t *testing.T, cfg jade.WorkerConfig) error
	}{
		{"plain_run", nil, func(t *testing.T, cfg jade.WorkerConfig) error {
			cfg.Addr = freeAddr(t)
			served := serveWhenUp(cfg)
			r, err := jade.NewLive(jade.LiveConfig{Workers: 1, Transport: "tcp", Listen: cfg.Addr, AwaitExternal: 1})
			if err != nil {
				t.Fatal(err)
			}
			doubleOnFPGA(t, r.Run)
			return await(t, served)
		}},
		{"late_to_a_run", nil, func(t *testing.T, cfg jade.WorkerConfig) error {
			r, err := jade.NewLive(jade.LiveConfig{Workers: 1, Transport: "tcp"})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Addr = r.ListenAddr()
			err = await(t, serveWhenUp(cfg))
			runSum(t, r)
			return err
		}},
		{"late_to_a_service", nil, func(t *testing.T, cfg jade.WorkerConfig) error {
			svc, err := jade.NewService(jade.ServiceConfig{Workers: 1, Transport: "tcp"})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			cfg.Addr = svc.Addr()
			return await(t, serveWhenUp(cfg))
		}},
		{"external_daemon_in_a_service", nil, func(t *testing.T, cfg jade.WorkerConfig) error {
			cfg.Addr = freeAddr(t)
			served := serveWhenUp(cfg)
			svc, err := jade.NewService(jade.ServiceConfig{Workers: 1, Transport: "tcp", Listen: cfg.Addr, AwaitExternal: 1})
			if err != nil {
				t.Fatal(err)
			}
			s, err := svc.OpenSession("t")
			if err != nil {
				svc.Close()
				t.Fatal(err)
			}
			doubleOnFPGA(t, s.Run)
			s.Close()
			svc.Close()
			return await(t, served)
		}},
		{"evicted", jade.ErrWorkerEvicted, func(t *testing.T, cfg jade.WorkerConfig) error {
			cfg.Addr = freeAddr(t)
			served := serveWhenUp(cfg)
			r, err := jade.NewLive(jade.LiveConfig{Workers: 1, Transport: "tcp", Listen: cfg.Addr, AwaitExternal: 1})
			if err != nil {
				t.Fatal(err)
			}
			err = r.Run(func(tk *jade.Task) {
				for _, w := range r.Report().Workers {
					if w.Name == cfg.Name {
						if err := r.KillWorker(w.Machine); err != nil {
							t.Error(err)
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return await(t, served)
		}},
		{"refused_dial", errAny, func(t *testing.T, cfg jade.WorkerConfig) error {
			cfg.Addr = freeAddr(t)
			return jade.ServeWorker(cfg)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			err := row.run(t, cfg)
			switch {
			case row.want == errAny && err == nil:
				t.Errorf("ServeWorker returned nil, want an error")
			case row.want != errAny && !errors.Is(err, row.want):
				t.Errorf("ServeWorker returned %v, want %v", err, row.want)
			}
			if err := exectest.AwaitGoroutines(before, 5*time.Second); err != nil {
				t.Error(err)
			}
		})
	}
}

// serveWhenUp serves cfg from a goroutine of its own, dialing again while
// nothing listens at cfg.Addr yet, and reports what ServeWorker returned.
func serveWhenUp(cfg jade.WorkerConfig) <-chan error {
	served := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			err := jade.ServeWorker(cfg)
			var op *net.OpError
			if !errors.As(err, &op) || op.Op != "dial" || time.Now().After(deadline) {
				served <- err
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	return served
}

// await returns what a served worker returned, failing the test if it is
// still connected 5s on.
func await(t *testing.T, served <-chan error) error {
	t.Helper()
	select {
	case err := <-served:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("the worker is still connected 5s after its peer was done with it")
		return nil
	}
}

// doubleOnFPGA runs a program whose one task is a kind that only a worker
// with the "fpga" tag may run, and checks what it computed.
func doubleOnFPGA(t *testing.T, run func(func(*jade.Task)) error) {
	t.Helper()
	var got []int64
	err := run(func(tk *jade.Task) {
		a := jade.NewArrayFrom(tk, []int64{1, 2, 3}, "v")
		a.Release(tk)
		tk.WithOnlyOpts(jade.TaskOptions{
			Label:      "double",
			Kind:       "jadetest-double",
			KindArgs:   binary.LittleEndian.AppendUint64(nil, a.ID()),
			RequireCap: "fpga",
		}, func(s *jade.Spec) { s.RdWr(a) }, nil)
		got = append([]int64(nil), a.Read(tk)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{2, 4, 6}; !slices.Equal(got, want) {
		t.Fatalf("array = %v, want %v", got, want)
	}
}
