package video

import (
	"bytes"
	"testing"

	"repro/internal/trace"
	"repro/jade"
)

func TestRLERoundTrip(t *testing.T) {
	cases := [][]byte{
		{},
		{1},
		{5, 5, 5, 5},
		bytes.Repeat([]byte{9}, 1000), // runs longer than 255
		{1, 2, 3, 4, 5},
	}
	for _, data := range cases {
		if got := unrle(rle(data)); !bytes.Equal(got, data) {
			t.Fatalf("rle round trip failed for %v", data)
		}
	}
	img := capture(3, 512)
	if got := unrle(img); len(got) != 512 {
		t.Fatalf("captured frame decompresses to %d bytes", len(got))
	}
}

func TestTransformIsInvolution(t *testing.T) {
	img := []byte{0, 1, 254, 255}
	want := []byte{255, 254, 1, 0}
	transform(img)
	if !bytes.Equal(img, want) {
		t.Fatalf("transform = %v", img)
	}
}

func TestSerialDeterministic(t *testing.T) {
	a := RunSerial(Config{Frames: 8, FrameBytes: 256})
	b := RunSerial(Config{Frames: 8, FrameBytes: 256})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("serial run not deterministic")
		}
	}
	if a[0] == a[1] {
		t.Fatal("distinct frames should have distinct checksums")
	}
}

func newHRV(t *testing.T, accels int) *jade.Runtime {
	t.Helper()
	r, err := jade.NewSimulated(jade.SimConfig{Platform: jade.HRV(accels), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestJadeMatchesSerial(t *testing.T) {
	cfg := Config{Frames: 10, FrameBytes: 512}
	want := RunSerial(cfg)
	r := newHRV(t, 2)
	got, err := RunJade(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for f := range want {
		if got.Checksums[f] != want[f] {
			t.Fatalf("frame %d checksum %d, want %d", f, got.Checksums[f], want[f])
		}
	}
}

func TestHeterogeneousPlacement(t *testing.T) {
	cfg := Config{Frames: 8, FrameBytes: 256}
	r := newHRV(t, 3)
	got, err := RunJade(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	usedAccels := map[int]bool{}
	for f, m := range got.TransformMachines {
		if m == 0 {
			t.Fatalf("frame %d transformed on the SPARC host", f)
		}
		usedAccels[m] = true
	}
	if len(usedAccels) < 2 {
		t.Fatalf("transforms should spread across accelerators, used %v", usedAccels)
	}
}

func TestPipelineOverlap(t *testing.T) {
	// With transform ≫ capture cost and multiple accelerators, the pipeline
	// must beat the serial sum of costs.
	cfg := Config{Frames: 12, FrameBytes: 256, CaptureWork: 0.002, TransformWork: 0.05}
	r := newHRV(t, 3)
	if _, err := RunJade(r, cfg); err != nil {
		t.Fatal(err)
	}
	pipelined := r.Makespan().Seconds()
	// Serial lower bound if nothing overlapped (host speed 1, accel speed 3).
	serial := float64(cfg.Frames) * (cfg.CaptureWork + cfg.TransformWork/3.0)
	if pipelined >= serial {
		t.Fatalf("no pipeline overlap: makespan %.4fs vs serial %.4fs", pipelined, serial)
	}
}

func TestMoreAcceleratorsMoreThroughput(t *testing.T) {
	cfg := Config{Frames: 12, FrameBytes: 256, CaptureWork: 0.001, TransformWork: 0.06}
	r1 := newHRV(t, 1)
	if _, err := RunJade(r1, cfg); err != nil {
		t.Fatal(err)
	}
	r3 := newHRV(t, 3)
	if _, err := RunJade(r3, cfg); err != nil {
		t.Fatal(err)
	}
	if r3.Makespan() >= r1.Makespan() {
		t.Fatalf("3 accelerators (%v) should beat 1 (%v)", r3.Makespan(), r1.Makespan())
	}
}

func TestFormatConversionHappens(t *testing.T) {
	// Frames move from the big-endian SPARC to little-endian i860s; byte
	// payloads need no byte swap, but the display/machines arrays (int64)
	// and any float data do. At minimum the run must record messages.
	cfg := Config{Frames: 6, FrameBytes: 256}
	r := newHRV(t, 2)
	if _, err := RunJade(r, cfg); err != nil {
		t.Fatal(err)
	}
	rep := r.Report()
	if rep.Net.Messages == 0 {
		t.Fatal("pipeline should move frames between machines")
	}
	log := r.TraceLog()
	if len(log.Filter(trace.ObjectMoved))+len(log.Filter(trace.ObjectCopied)) == 0 {
		t.Fatal("object motion events missing")
	}
	if rep.ConvertedWords == 0 {
		t.Fatal("int64 device objects crossing SPARC→i860 must be format-converted")
	}
}
