package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestFig7ChromeValidates: -trace-out on f7 writes the Figure 7 run through
// the one trace exporter, so it must satisfy the same structural validator
// as every other Perfetto artifact.
func TestFig7ChromeValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f7.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "f7", "-trace-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := obs.Validate(data)
	if err != nil {
		t.Fatalf("obs.Validate: %v", err)
	}
	if len(st.ExecTasks) == 0 || st.Flows == 0 || st.Truncated {
		t.Errorf("export has %d exec tasks, %d flows, truncated=%v; want a full traced run", len(st.ExecTasks), st.Flows, st.Truncated)
	}
	if !strings.Contains(stdout.String(), "F7") {
		t.Errorf("stdout lacks the F7 table:\n%s", stdout.String())
	}
}

// TestCatalogIsTheOnlyList: -list prints exactly the table -exp selects
// from, ids are unique, and an id outside it is a usage error rather than
// a silent no-op.
func TestCatalogIsTheOnlyList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d: %s", code, stderr.String())
	}
	table := catalog(&options{}, &stdout, &stderr)
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != len(table) {
		t.Fatalf("-list printed %d lines for %d experiments", len(lines), len(table))
	}
	seen := map[string]bool{}
	for i, e := range table {
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != e.id {
			t.Errorf("-list line %d = %q, want id %q", i, lines[i], e.id)
		}
	}

	stdout.Reset()
	if code := run([]string{"-exp", "f4,nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown -exp id: exit %d, want 2", code)
	}
	// Live timings belong to bench/, so these ids must stay unknown.
	for _, id := range []string{"l3", "mt1", "sv1"} {
		if code := run([]string{"-exp", id}, io.Discard, io.Discard); code != 2 {
			t.Errorf("-exp %s: exit %d, want 2 (unknown id)", id, code)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("an unknown id must fail before anything runs; stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), `"nope"`) {
		t.Errorf("stderr does not name the unknown id: %s", stderr.String())
	}
}
