package jade_test

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/jade"
)

// fanout runs a labeled fan-out program with enough tasks to populate
// latency histograms and (with enough of them) overflow the event ring.
func fanout(t *testing.T, r *jade.Runtime, n int) {
	t.Helper()
	var total int64
	err := r.Run(func(tk *jade.Task) {
		cells := jade.NewArray[int64](tk, n, "cells")
		cells.Release(tk)
		for i := 0; i < n; i++ {
			i := i
			tk.WithOnlyOpts(jade.TaskOptions{Label: "fill", Cost: 0.001},
				func(s *jade.Spec) { s.RdWr(cells) },
				func(tk *jade.Task) { cells.ReadWrite(tk)[i] = int64(i) + 1 })
		}
		tk.WithCont(func(c *jade.Cont) {})
		for _, x := range cells.Read(tk) {
			total += x
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * int64(n+1) / 2; total != want {
		t.Fatalf("sum = %d, want %d", total, want)
	}
}

// TestExportTraceUntraced: exports must work from the always-on ring
// with tracing off, on every substrate, and be structurally valid with
// an exec slice for every retired task.
func TestExportTraceUntraced(t *testing.T) {
	sim, err := jade.NewSimulated(jade.SimConfig{Platform: jade.IPSC860(2)})
	if err != nil {
		t.Fatal(err)
	}
	live, err := jade.NewLive(jade.LiveConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*jade.Runtime{
		"smp": jade.NewSMP(jade.SMPConfig{Procs: 2}), "sim": sim, "live": live,
	} {
		t.Run(name, func(t *testing.T) {
			fanout(t, r, 8)
			rep := r.Report()
			var buf bytes.Buffer
			if err := r.ExportTrace(&buf, jade.ObsOptions{}); err != nil {
				t.Fatal(err)
			}
			st, err := obs.Validate(buf.Bytes())
			if err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
			// Every retired task must have an exec slice: the 8 fill
			// tasks plus the main program.
			if len(st.ExecTasks) < 9 {
				t.Fatalf("exec slices for %d tasks, want >= 9 (report: %d completed)",
					len(st.ExecTasks), rep.Tasks.Completed)
			}
			if st.Truncated {
				t.Fatalf("unexpected truncation on a small run")
			}
			var flame bytes.Buffer
			if err := r.ExportFlame(&flame); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(flame.String(), ";fill;exec ") {
				t.Fatalf("flame output missing fill exec stack:\n%s", flame.String())
			}
		})
	}
}

// TestReportLatency: Report must carry per-label latency quantiles from
// the always-on stream.
func TestReportLatency(t *testing.T) {
	r := jade.NewSMP(jade.SMPConfig{Procs: 2})
	fanout(t, r, 8)
	rep := r.Report()
	if rep.DroppedEvents != 0 {
		t.Fatalf("DroppedEvents = %d on a small run", rep.DroppedEvents)
	}
	var fill *jade.LabelLatency
	for i := range rep.Latency {
		if rep.Latency[i].Label == "fill" {
			fill = &rep.Latency[i]
		}
	}
	if fill == nil {
		t.Fatalf("Report().Latency has no \"fill\" entry: %+v", rep.Latency)
	}
	if fill.Total.Count != 8 {
		t.Fatalf("fill latency count = %d, want 8", fill.Total.Count)
	}
	if fill.Total.P50() <= 0 || fill.Total.P99() < fill.Total.P50() {
		t.Fatalf("broken quantiles: p50=%v p99=%v", fill.Total.P50(), fill.Total.P99())
	}
}

// TestTraceRingSize: a run that overflows the default live ring (4,096
// events) must surface the loss in Report.DroppedEvents, and stamp
// exports with a truncation marker — never silently render a partial run.
func TestTraceRingSize(t *testing.T) {
	r, err := jade.NewLive(jade.LiveConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fanout(t, r, 600)
	rep := r.Report()
	if rep.DroppedEvents == 0 {
		t.Fatalf("600 tasks through the default ring dropped nothing")
	}
	var buf bytes.Buffer
	if err := r.ExportTrace(&buf, jade.ObsOptions{}); err != nil {
		t.Fatal(err)
	}
	st, err := obs.Validate(buf.Bytes())
	if err != nil {
		t.Fatalf("truncated trace invalid: %v", err)
	}
	if !st.Truncated {
		t.Fatalf("truncated run exported without a truncation marker")
	}
	var flame bytes.Buffer
	if err := r.ExportFlame(&flame); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(flame.String(), "# TRUNCATED:") {
		t.Fatalf("truncated flame output lacks marker")
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestObsEndpointLive: a live runtime with ObsConfig serves metrics,
// trace and profile over HTTP.
func TestObsEndpointLive(t *testing.T) {
	r, err := jade.NewLive(jade.LiveConfig{Workers: 2, Obs: &jade.ObsConfig{Addr: "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.StopObs()
	if r.ObsAddr() == "" {
		t.Fatal("no obs address")
	}
	fanout(t, r, 8)
	base := "http://" + r.ObsAddr()

	code, body := httpGet(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"jade_tasks_run_total", "jade_net_messages_total",
		"jade_worker_slots", `jade_task_latency_seconds_count{label="fill"} 8`} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = httpGet(t, base+"/trace")
	if code != 200 {
		t.Fatalf("/trace = %d", code)
	}
	if _, err := obs.Validate([]byte(body)); err != nil {
		t.Fatalf("/trace invalid: %v", err)
	}

	code, body = httpGet(t, base+"/profile")
	if code != 200 || body == "" {
		t.Fatalf("/profile = %d %q", code, body)
	}
}

// TestObsEndpointService: the service endpoint serves fleet metrics and
// scopes /trace and /metrics by ?session=.
func TestObsEndpointService(t *testing.T) {
	svc, err := jade.NewService(jade.ServiceConfig{
		Workers: 2, WorkerSlots: 2,
		Obs: &jade.ObsConfig{Addr: "127.0.0.1:0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sess, err := svc.OpenSession("acme")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	fanout(t, sess.Runtime, 8)
	base := "http://" + svc.ObsAddr()

	code, body := httpGet(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"jade_service_sessions_admitted_total 1",
		`jade_service_tenant_sessions_active{tenant="acme"} 1`,
		`jade_service_task_latency_seconds_count{label="fill"} 8`} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet /metrics missing %q:\n%s", want, body)
		}
	}

	sid := "1"
	code, body = httpGet(t, base+"/metrics?session="+sid)
	if code != 200 || !strings.Contains(body, `jade_task_latency_seconds_count{label="fill"} 8`) {
		t.Fatalf("session /metrics = %d:\n%s", code, body)
	}
	code, body = httpGet(t, base+"/trace?session="+sid)
	if code != 200 {
		t.Fatalf("session /trace = %d", code)
	}
	if _, err := obs.Validate([]byte(body)); err != nil {
		t.Fatalf("session trace invalid: %v", err)
	}
	if code, _ = httpGet(t, base+"/trace"); code == 200 {
		t.Fatalf("unscoped service /trace should fail")
	}
	if code, _ = httpGet(t, base+"/metrics?session=999"); code != 404 {
		t.Fatalf("unknown session = %d, want 404", code)
	}
}

// TestLiveWorkerCaps: capability-tagged placement inside one process —
// a task requiring a tag only runs on the worker advertising it.
func TestLiveWorkerCaps(t *testing.T) {
	r, err := jade.NewLive(jade.LiveConfig{
		Workers:    3,
		WorkerCaps: [][]string{{}, {"camera"}, {"display"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var camAt, dispAt int
	err = r.Run(func(tk *jade.Task) {
		a := jade.NewArray[int64](tk, 2, "a")
		a.Release(tk)
		tk.WithOnlyOpts(jade.TaskOptions{Label: "cam", RequireCap: "camera"},
			func(s *jade.Spec) { s.RdWr(a) },
			func(tk *jade.Task) { camAt = tk.Machine(); a.ReadWrite(tk)[0] = 7 })
		tk.WithOnlyOpts(jade.TaskOptions{Label: "disp", RequireCap: "display"},
			func(s *jade.Spec) { s.RdWr(a) },
			func(tk *jade.Task) { dispAt = tk.Machine(); a.ReadWrite(tk)[1] = 9 })
		tk.WithCont(func(c *jade.Cont) {})
		_ = a.Read(tk)
	})
	if err != nil {
		t.Fatal(err)
	}
	if camAt != 2 {
		t.Fatalf("camera task ran on machine %d, want 2", camAt)
	}
	if dispAt != 3 {
		t.Fatalf("display task ran on machine %d, want 3", dispAt)
	}
}
