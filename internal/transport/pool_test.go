package transport

import "testing"

// TestBufPoolCycleAllocatesNothing: a buffer taken from the pool and given
// back costs no allocation, the box that carries it through the pool
// included. The race detector makes sync.Pool drop items at random, so the
// count is only exact without it.
func TestBufPoolCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	PutBuf(GetBuf())
	if allocs := testing.AllocsPerRun(1000, func() {
		b := append(GetBuf(), "frame"...)
		PutBuf(b)
	}); allocs != 0 {
		t.Errorf("%.1f allocs per GetBuf/PutBuf cycle, want 0", allocs)
	}
}
