package experiments

import "testing"

// TestL1Live: Cholesky over both live transports matches the serial oracle
// and reports real traffic.
func TestL1Live(t *testing.T) {
	tb, r, err := L1Live(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want one per transport", len(tb.Rows))
	}
	if r == nil || r.Report().Tasks.Run == 0 {
		t.Fatal("no finished inproc runtime returned for export")
	}
}
