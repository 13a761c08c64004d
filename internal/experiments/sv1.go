package experiments

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/apps/serve"
	"repro/jade"
)

// SV1Point is one (transport, arrival rate) measurement of the serving
// workload.
type SV1Point struct {
	Transport    string
	Workers      int
	Rate         float64
	Requests     int
	P50NS        int64
	P90NS        int64
	P99NS        int64
	MaxNS        int64
	MeanNS       int64
	WallNS       int64
	AchievedRate float64
}

// SV1Result carries the rendered table plus the raw points.
type SV1Result struct {
	Table  *Table
	Points []SV1Point
}

// SV1Serving measures request latency under open-loop load on the live
// executor: the request-DAG serving workload (capability-placed ingest
// and egress around two parallel transforms) driven at each arrival
// rate on each transport, reporting p50/p90/p99/max from the workload's
// log-bucketed histogram. Latency is completion minus *nominal* arrival
// (start + i/rate), so queueing delay under overload shows up instead
// of being absorbed by a slowing generator. Every run's digests are
// checked bit-identical against the serial oracle, and the capability
// tags are asserted to have been honored — every ingest on the camera
// worker, every egress on the display worker.
func SV1Serving(requests, workers int, rates []float64) (*SV1Result, error) {
	if requests == 0 {
		requests = 64
	}
	if workers < 2 {
		workers = 4
	}
	if len(rates) == 0 {
		rates = []float64{100, 400, 1600}
	}
	cfgFor := func(rate float64) serve.Config {
		return serve.Config{Requests: requests, Rate: rate}
	}
	oracle := serve.RunSerial(cfgFor(0))

	// Worker 0 (machine 1) is the camera host, worker 1 (machine 2)
	// drives the display; the rest are untagged compute.
	caps := make([][]string, workers)
	caps[0] = []string{jade.CapCamera}
	caps[1] = []string{jade.CapDisplay}

	res := &SV1Result{Table: &Table{
		ID: "SV1",
		Title: fmt.Sprintf("serving latency: %d-request open-loop DAG stream on %d workers",
			requests, workers),
		Columns: []string{"transport", "rate req/s", "p50", "p90", "p99", "max", "achieved req/s"},
	}}
	for _, tr := range []string{"inproc", "tcp"} {
		for _, rate := range rates {
			r, err := jade.NewLive(jade.LiveConfig{
				Workers: workers, Transport: tr, WorkerCaps: caps,
			})
			if err != nil {
				return nil, fmt.Errorf("SV1 %s rate %g: %w", tr, rate, err)
			}
			out, err := serve.RunJade(r, cfgFor(rate))
			if err != nil {
				return nil, fmt.Errorf("SV1 %s rate %g: %w", tr, rate, err)
			}
			if !reflect.DeepEqual(out.Digests, oracle) {
				return nil, fmt.Errorf("SV1 %s rate %g: digests differ from the serial oracle", tr, rate)
			}
			// On tcp the machine index of each worker depends on dial
			// order, so assert placement by consistency: one camera
			// worker took every ingest, a different display worker took
			// every egress, and neither is the (untagged) coordinator.
			camAt, dispAt := out.IngestMachines[0], out.EgressMachines[0]
			if camAt == 0 || dispAt == 0 || camAt == dispAt {
				return nil, fmt.Errorf("SV1 %s rate %g: bad placement: ingest on %d, egress on %d",
					tr, rate, camAt, dispAt)
			}
			for i := range out.IngestMachines {
				if out.IngestMachines[i] != camAt {
					return nil, fmt.Errorf("SV1 %s rate %g: ingest %d ran on machine %d, want %d (camera)",
						tr, rate, i, out.IngestMachines[i], camAt)
				}
				if out.EgressMachines[i] != dispAt {
					return nil, fmt.Errorf("SV1 %s rate %g: egress %d ran on machine %d, want %d (display)",
						tr, rate, i, out.EgressMachines[i], dispAt)
				}
			}
			lat := out.Latency
			if lat.Count != uint64(requests) {
				return nil, fmt.Errorf("SV1 %s rate %g: %d latency samples for %d requests",
					tr, rate, lat.Count, requests)
			}
			achieved := float64(requests) / out.Wall.Seconds()
			p := SV1Point{
				Transport: tr, Workers: workers, Rate: rate, Requests: requests,
				P50NS: lat.P50().Nanoseconds(), P90NS: lat.P90().Nanoseconds(),
				P99NS: lat.P99().Nanoseconds(), MaxNS: lat.MaxNS,
				MeanNS: lat.Mean().Nanoseconds(), WallNS: out.Wall.Nanoseconds(),
				AchievedRate: achieved,
			}
			res.Points = append(res.Points, p)
			ms := func(d time.Duration) string {
				return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
			}
			res.Table.AddRow(tr, fmt.Sprintf("%.0f", rate),
				ms(lat.P50()), ms(lat.P90()), ms(lat.P99()), ms(lat.Max()),
				fmt.Sprintf("%.0f", achieved))
		}
	}
	res.Table.Notes = append(res.Table.Notes,
		"latency = completion minus nominal open-loop arrival (start + i/rate); overload surfaces as queueing delay",
		"every run bit-identical to the serial oracle; ingest pinned to the camera worker, egress to the display worker",
		"quantiles from the log-bucketed histogram (2x-wide buckets), so p50<=p90<=p99<=max by construction")
	return res, nil
}
