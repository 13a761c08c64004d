package serve

import (
	"reflect"
	"testing"

	"repro/jade"
)

// TestSerialDeterministic: the oracle is a pure function of the config.
func TestSerialDeterministic(t *testing.T) {
	a := RunSerial(Config{Requests: 8})
	b := RunSerial(Config{Requests: 8})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("serial oracle is not deterministic")
	}
	if len(a) != 8 {
		t.Fatalf("digests = %d, want 8", len(a))
	}
}

// TestServeSimulated: the DAG runs on the simulated HRV platform (which
// carries the camera and display capabilities natively) bit-identical
// to the serial oracle.
func TestServeSimulated(t *testing.T) {
	cfg := Config{Requests: 12}
	r, err := jade.NewSimulated(jade.SimConfig{Platform: jade.HRV(3)})
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunJade(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Digests, RunSerial(cfg)) {
		t.Fatal("simulated digests differ from the serial oracle")
	}
	for i, m := range out.IngestMachines {
		if m != 0 {
			t.Fatalf("ingest %d ran on machine %d, want 0 (HRV camera host)", i, m)
		}
	}
}

// TestServeLive: the same program on the live executor with
// capability-tagged workers — burst mode (Rate 0) and paced, over both
// transports — stays bit-identical and lands ingest/egress on the tagged
// workers, with one latency sample per request. Placement is asserted by
// consistency: one camera worker takes every ingest, a different display
// worker takes every egress, and neither is the untagged coordinator. On
// tcp a worker's machine id depends on dial order, so only inproc also
// pins the ids.
func TestServeLive(t *testing.T) {
	caps := [][]string{{jade.CapCamera}, {jade.CapDisplay}, {}}
	for _, c := range []struct {
		transport string
		rate      float64
	}{{"inproc", 0}, {"inproc", 2000}, {"tcp", 2000}} {
		cfg := Config{Requests: 10, Rate: c.rate}
		r, err := jade.NewLive(jade.LiveConfig{Workers: 3, Transport: c.transport, WorkerCaps: caps})
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunJade(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Digests, RunSerial(cfg)) {
			t.Fatalf("%s rate %g: live digests differ from the serial oracle", c.transport, c.rate)
		}
		camAt, dispAt := out.IngestMachines[0], out.EgressMachines[0]
		if camAt == 0 || dispAt == 0 || camAt == dispAt {
			t.Fatalf("%s rate %g: bad placement: ingest on %d, egress on %d", c.transport, c.rate, camAt, dispAt)
		}
		if c.transport == "inproc" && (camAt != 1 || dispAt != 2) {
			t.Fatalf("%s rate %g: ingest on %d, egress on %d, want 1 and 2", c.transport, c.rate, camAt, dispAt)
		}
		for i := range out.IngestMachines {
			if out.IngestMachines[i] != camAt || out.EgressMachines[i] != dispAt {
				t.Fatalf("%s rate %g: request %d ingest on %d, egress on %d, want %d and %d",
					c.transport, c.rate, i, out.IngestMachines[i], out.EgressMachines[i], camAt, dispAt)
			}
		}
		if out.Latency.Count != 10 {
			t.Fatalf("%s rate %g: %d latency samples, want 10", c.transport, c.rate, out.Latency.Count)
		}
		if out.Latency.P50() <= 0 || out.Latency.P99() < out.Latency.P50() {
			t.Fatalf("%s rate %g: broken quantiles: %v", c.transport, c.rate, out.Latency)
		}
	}
}
