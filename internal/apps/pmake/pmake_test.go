package pmake

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/jade"
)

const sampleMakefile = `
# a small project: two objects linked into a program
prog: a.o b.o
	link a.o b.o
a.o: a.c util.h
	cc a.c util.h
b.o: b.c util.h
	cc b.c util.h
docs: a.c b.c
	cat a.c b.c
`

func sampleProject() *Project {
	p := NewProject()
	p.WriteFile("a.c", []byte("int a;"))
	p.WriteFile("b.c", []byte("int b;"))
	p.WriteFile("util.h", []byte("#pragma once"))
	return p
}

func TestParse(t *testing.T) {
	mf, err := Parse(sampleMakefile)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Rules) != 4 {
		t.Fatalf("rules = %d", len(mf.Rules))
	}
	r := mf.Rule("prog")
	if r == nil || len(r.Deps) != 2 || r.Command[0] != "link" {
		t.Fatalf("prog rule wrong: %+v", r)
	}
	if mf.Rule("a.c") != nil {
		t.Fatal("source file should have no rule")
	}
	src := mf.SourceFiles()
	if strings.Join(src, ",") != "a.c,b.c,util.h" {
		t.Fatalf("sources = %v", src)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"\tcommand without rule",
		"norule here",
		"a: b\n\tcc b\na: c\n\tcc c", // duplicate
		"a: b\n\tcc b\nb: a\n\tcc a", // cycle
		"a: a\n\tcc a",               // self-cycle
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Fatalf("expected parse error for %q", src)
		}
	}
}

func TestPlanFullBuild(t *testing.T) {
	mf, _ := Parse(sampleMakefile)
	p := sampleProject()
	order, err := Plan(p, mf, "prog")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "a.o,b.o,prog" {
		t.Fatalf("order = %v", order)
	}
}

func TestPlanMissingSource(t *testing.T) {
	mf, _ := Parse(sampleMakefile)
	p := NewProject()
	if _, err := Plan(p, mf, "prog"); err == nil || !strings.Contains(err.Error(), "no rule") {
		t.Fatalf("want missing-source error, got %v", err)
	}
}

func TestIncrementalRebuild(t *testing.T) {
	mf, _ := Parse(sampleMakefile)
	p := sampleProject()
	if _, err := BuildSerial(p, mf, "prog"); err != nil {
		t.Fatal(err)
	}
	// Up to date: nothing to do.
	order, err := Plan(p, mf, "prog")
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 0 {
		t.Fatalf("up-to-date build should plan nothing, got %v", order)
	}
	// Touch one source: only its object and the program rebuild.
	p.Touch("a.c")
	order, _ = Plan(p, mf, "prog")
	if strings.Join(order, ",") != "a.o,prog" {
		t.Fatalf("incremental order = %v", order)
	}
	// Touch the shared header: everything rebuilds.
	if _, err := BuildSerial(p, mf, "prog"); err != nil {
		t.Fatal(err)
	}
	p.Touch("util.h")
	order, _ = Plan(p, mf, "prog")
	if strings.Join(order, ",") != "a.o,b.o,prog" {
		t.Fatalf("header-touch order = %v", order)
	}
}

func TestSerialBuildContents(t *testing.T) {
	mf, _ := Parse(sampleMakefile)
	p := sampleProject()
	if _, err := BuildSerial(p, mf, "prog"); err != nil {
		t.Fatal(err)
	}
	prog := string(p.Files["prog"])
	if !strings.HasPrefix(prog, "exe prog\n") {
		t.Fatalf("prog contents: %q", prog)
	}
	if !strings.Contains(prog, "obj a.o") || !strings.Contains(prog, "obj b.o") {
		t.Fatalf("prog should embed both objects: %q", prog)
	}
}

func TestUnknownTool(t *testing.T) {
	mf, err := Parse("x: y\n\tfrobnicate y")
	if err != nil {
		t.Fatal(err)
	}
	p := NewProject()
	p.WriteFile("y", []byte("data"))
	if _, err := BuildSerial(p, mf, "x"); err == nil || !strings.Contains(err.Error(), "frobnicate") {
		t.Fatalf("want unknown-tool error, got %v", err)
	}
}

func TestJadeBuildMatchesSerial(t *testing.T) {
	mf, _ := Parse(sampleMakefile)
	for name, mk := range map[string]func(t *testing.T) *jade.Runtime{
		"smp": func(t *testing.T) *jade.Runtime { return jade.NewSMP(jade.SMPConfig{Procs: 4}) },
		"mica": func(t *testing.T) *jade.Runtime {
			r, err := jade.NewSimulated(jade.SimConfig{Platform: jade.Mica(3)})
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
	} {
		t.Run(name, func(t *testing.T) {
			ps := sampleProject()
			wantOrder, err := BuildSerial(ps, mf, "prog")
			if err != nil {
				t.Fatal(err)
			}
			pj := sampleProject()
			gotOrder, err := BuildJade(mk(t), pj, mf, "prog", 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(gotOrder, ",") != strings.Join(wantOrder, ",") {
				t.Fatalf("order %v != %v", gotOrder, wantOrder)
			}
			for f, want := range ps.Files {
				if !bytes.Equal(pj.Files[f], want) {
					t.Fatalf("file %s differs:\n jade: %q\nserial: %q", f, pj.Files[f], want)
				}
			}
			// Incremental state must also agree: nothing left to do.
			order, _ := Plan(pj, mf, "prog")
			if len(order) != 0 {
				t.Fatalf("jade build left work: %v", order)
			}
		})
	}
}

// wideMakefile builds n independent objects linked into one program.
func wideMakefile(n int) (string, *Project) {
	var b strings.Builder
	p := NewProject()
	b.WriteString("prog:")
	for i := 0; i < n; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		b.WriteString(" " + name + ".o")
		p.WriteFile(name+".c", bytes.Repeat([]byte("x"), 2000))
	}
	b.WriteString("\n\tlink")
	for i := 0; i < n; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		b.WriteString(" " + name + ".o")
	}
	b.WriteString("\n")
	for i := 0; i < n; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		b.WriteString(name + ".o: " + name + ".c\n\tcc " + name + ".c\n")
	}
	return b.String(), p
}

func TestJadeBuildParallelism(t *testing.T) {
	src, _ := wideMakefile(12)
	mf, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	makespan := func(machines int) float64 {
		_, p := wideMakefile(12)
		r, err := jade.NewSimulated(jade.SimConfig{Platform: jade.DASH(machines)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BuildJade(r, p, mf, "prog", 1e-5); err != nil {
			t.Fatal(err)
		}
		return r.Makespan().Seconds()
	}
	t1, t4 := makespan(1), makespan(4)
	if t1/t4 < 1.8 {
		t.Fatalf("parallel make speedup too low: t1=%.4f t4=%.4f", t1, t4)
	}
}

func TestFileObjectRoundTrip(t *testing.T) {
	buf := make([]byte, 64)
	if err := putContent(buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := getContent(buf); string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if err := putContent(buf, bytes.Repeat([]byte("x"), 61)); err == nil {
		t.Fatal("overflow should error")
	}
}

// TestOutputBoundCoversEveryCommand: for random rules of every tool over
// deps of random names and sizes, what runCommand writes never exceeds
// outputBound, so a target's file object always holds its output.
func TestOutputBoundCoversEveryCommand(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	name := func() string {
		b := make([]byte, 1+rng.Intn(24))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		files := map[string][]byte{}
		argv := []string{[]string{"cat", "cc", "link"}[rng.Intn(3)]}
		for d := rng.Intn(6); d > 0; d-- {
			dep := name()
			data := make([]byte, rng.Intn(1<<uint(rng.Intn(14))))
			rng.Read(data)
			files[dep] = data
			argv = append(argv, dep)
		}
		target := name()
		out, err := runCommand(argv, target, func(d string) []byte { return files[d] })
		if err != nil {
			t.Fatal(err)
		}
		if bound := outputBound(argv, target, func(d string) int { return len(files[d]) }); len(out) > bound {
			t.Fatalf("%v -> %s: wrote %d bytes, bound %d", argv, target, len(out), bound)
		}
	}
}

// TestJadeBuildOfLargeFiles: a file object is sized to what it holds, so a
// target larger than any fixed capacity builds bit-identically to the
// serial build, on shared memory and over the live runtime's wire.
func TestJadeBuildOfLargeFiles(t *testing.T) {
	mf, err := Parse("all: a.c b.c\n\tcat a.c b.c\n")
	if err != nil {
		t.Fatal(err)
	}
	project := func() *Project {
		p := NewProject()
		for i, f := range []string{"a.c", "b.c"} {
			data := make([]byte, 40<<10)
			for k := range data {
				data[k] = byte('a' + (k*7+i)%26)
			}
			p.WriteFile(f, data)
		}
		return p
	}
	want := project()
	if _, err := BuildSerial(want, mf, "all"); err != nil {
		t.Fatal(err)
	}
	for name, mk := range map[string]func() (*jade.Runtime, error){
		"smp":         func() (*jade.Runtime, error) { return jade.NewSMP(jade.SMPConfig{Procs: 2}), nil },
		"live-inproc": func() (*jade.Runtime, error) { return jade.NewLive(jade.LiveConfig{Workers: 2}) },
	} {
		t.Run(name, func(t *testing.T) {
			r, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			got := project()
			if _, err := BuildJade(r, got, mf, "all", 1e-6); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Files["all"], want.Files["all"]) {
				t.Fatalf("all: %d bytes, want the serial build's %d", len(got.Files["all"]), len(want.Files["all"]))
			}
		})
	}
}
