// Package pmake implements the paper's parallel make application (§7.1): a
// makefile-subset parser and an incremental recompilation engine whose
// commands run as Jade tasks. Each command's task declares rd on the files
// it reads and rd_wr on the file it produces; Jade then runs independent
// recompilations concurrently while commands that consume another command's
// output wait — concurrency that "depends on the makefile and on the
// modification dates of the files", defeating static analysis but falling
// out of Jade's dynamic access specifications.
//
// There is no real shell: commands are small deterministic content
// transforms (cat, cc, link) over an in-memory file store, which preserves
// the concurrency structure of recompilation without executing processes.
package pmake

import (
	"fmt"
	"sort"
	"strings"
)

// Rule is one makefile rule: build Target from Deps by running Command.
type Rule struct {
	Target  string
	Deps    []string
	Command []string // argv: tool name + operands (dep names)
}

// Makefile is a parsed makefile.
type Makefile struct {
	Rules []Rule
	byTgt map[string]*Rule
}

// Parse reads the makefile subset:
//
//	target: dep1 dep2 ...
//		tool arg1 arg2 ...
//
// Rule lines start a rule; a following tab-indented line is its command.
// Blank lines and #-comments are ignored. Tools: cat (concatenate deps),
// cc (compile deps into an object), link (link objects into a program).
func Parse(src string) (*Makefile, error) {
	mf := &Makefile{byTgt: map[string]*Rule{}}
	var cur *Rule
	for ln, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		if strings.HasPrefix(line, "\t") {
			if cur == nil {
				return nil, fmt.Errorf("line %d: command without a rule", ln+1)
			}
			if cur.Command != nil {
				return nil, fmt.Errorf("line %d: rule %q already has a command", ln+1, cur.Target)
			}
			cur.Command = strings.Fields(trimmed)
			continue
		}
		colon := strings.Index(line, ":")
		if colon < 0 {
			return nil, fmt.Errorf("line %d: expected 'target: deps'", ln+1)
		}
		target := strings.TrimSpace(line[:colon])
		if target == "" {
			return nil, fmt.Errorf("line %d: empty target", ln+1)
		}
		if mf.byTgt[target] != nil {
			return nil, fmt.Errorf("line %d: duplicate rule for %q", ln+1, target)
		}
		mf.Rules = append(mf.Rules, Rule{Target: target, Deps: strings.Fields(line[colon+1:])})
		cur = &mf.Rules[len(mf.Rules)-1]
		mf.byTgt[target] = cur
	}
	// Validate: no dependency cycles.
	if err := mf.checkAcyclic(); err != nil {
		return nil, err
	}
	return mf, nil
}

// Rule returns the rule building target, or nil for source files.
func (mf *Makefile) Rule(target string) *Rule {
	if mf.byTgt == nil {
		mf.byTgt = map[string]*Rule{}
		for i := range mf.Rules {
			mf.byTgt[mf.Rules[i].Target] = &mf.Rules[i]
		}
	}
	return mf.byTgt[target]
}

func (mf *Makefile) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(t string) error
	visit = func(t string) error {
		switch color[t] {
		case gray:
			return fmt.Errorf("dependency cycle through %q", t)
		case black:
			return nil
		}
		color[t] = gray
		if r := mf.Rule(t); r != nil {
			for _, d := range r.Deps {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		color[t] = black
		return nil
	}
	for _, r := range mf.Rules {
		if err := visit(r.Target); err != nil {
			return err
		}
	}
	return nil
}

// Project is the in-memory file system: contents plus logical modification
// times (a counter; bigger = newer).
type Project struct {
	Files map[string][]byte
	MTime map[string]int64
	clock int64
}

// NewProject returns an empty project.
func NewProject() *Project {
	return &Project{Files: map[string][]byte{}, MTime: map[string]int64{}}
}

// WriteFile sets a file's contents and stamps it newer than everything.
func (p *Project) WriteFile(name string, data []byte) {
	p.clock++
	p.Files[name] = data
	p.MTime[name] = p.clock
}

// Touch stamps a file newer than everything without changing contents.
func (p *Project) Touch(name string) {
	p.clock++
	p.MTime[name] = p.clock
}

// runCommand executes a tool over dep contents, producing the target's
// contents. Deterministic, pure.
func runCommand(argv []string, target string, dep func(string) []byte) ([]byte, error) {
	if len(argv) == 0 {
		return nil, fmt.Errorf("%s: empty command", target)
	}
	switch argv[0] {
	case "cat":
		var out []byte
		for _, d := range argv[1:] {
			out = append(out, dep(d)...)
		}
		return out, nil
	case "cc":
		// "Compile": a deterministic digest of the inputs, one line per dep.
		var b strings.Builder
		fmt.Fprintf(&b, "obj %s\n", target)
		for _, d := range argv[1:] {
			data := dep(d)
			var sum uint64
			for _, c := range data {
				sum = sum*131 + uint64(c)
			}
			fmt.Fprintf(&b, "unit %s %d %d\n", d, len(data), sum)
		}
		return []byte(b.String()), nil
	case "link":
		var b strings.Builder
		fmt.Fprintf(&b, "exe %s\n", target)
		for _, d := range argv[1:] {
			b.Write(dep(d))
		}
		return []byte(b.String()), nil
	default:
		return nil, fmt.Errorf("%s: unknown tool %q", target, argv[0])
	}
}

// ccLineMax bounds one "unit" line of cc's output beyond its dep's name:
// the words and separators, and two integers of at most 20 digits each.
const ccLineMax = len("unit   \n") + 2*20

// outputBound is the most bytes runCommand can write for target when each
// dep d holds size(d) bytes: the capacity the target's file object needs.
// One case per tool, beside runCommand's.
func outputBound(argv []string, target string, size func(string) int) int {
	if len(argv) == 0 {
		return 0
	}
	n := 0
	switch argv[0] {
	case "cat":
	case "cc":
		n = len("obj \n") + len(target)
		for _, d := range argv[1:] {
			n += ccLineMax + len(d)
		}
		return n
	case "link":
		n = len("exe \n") + len(target)
	default:
		return 0
	}
	for _, d := range argv[1:] {
		n += size(d)
	}
	return n
}

// Plan computes, in post-order, the targets that must be rebuilt to bring
// goal up to date: a target rebuilds if it is missing, any dependency is
// newer, or any dependency itself rebuilds. This is the decision the serial
// make loop takes while walking the makefile; the Jade version makes the
// same decisions and only parallelizes the command execution.
func Plan(p *Project, mf *Makefile, goal string) ([]string, error) {
	var order []string
	rebuild := map[string]bool{}
	visited := map[string]bool{}
	var visit func(t string) error
	visit = func(t string) error {
		if visited[t] {
			return nil
		}
		visited[t] = true
		r := mf.Rule(t)
		if r == nil {
			if _, ok := p.Files[t]; !ok {
				return fmt.Errorf("no rule to make %q", t)
			}
			return nil
		}
		need := false
		if _, ok := p.Files[t]; !ok {
			need = true
		}
		for _, d := range r.Deps {
			if err := visit(d); err != nil {
				return err
			}
			if rebuild[d] || p.MTime[d] > p.MTime[t] {
				need = true
			}
		}
		if need {
			rebuild[t] = true
			order = append(order, t)
		}
		return nil
	}
	if err := visit(goal); err != nil {
		return nil, err
	}
	return order, nil
}

// BuildSerial brings goal up to date serially and returns the rebuilt
// targets in execution order — the semantic reference for the Jade build.
func BuildSerial(p *Project, mf *Makefile, goal string) ([]string, error) {
	order, err := Plan(p, mf, goal)
	if err != nil {
		return nil, err
	}
	for _, t := range order {
		r := mf.Rule(t)
		out, err := runCommand(r.Command, t, func(d string) []byte { return p.Files[d] })
		if err != nil {
			return nil, err
		}
		p.WriteFile(t, out)
	}
	return order, nil
}

// Targets returns all rule targets, sorted (for deterministic setup).
func (mf *Makefile) Targets() []string {
	out := make([]string, 0, len(mf.Rules))
	for _, r := range mf.Rules {
		out = append(out, r.Target)
	}
	sort.Strings(out)
	return out
}

// SourceFiles returns dependency names that no rule builds, sorted.
func (mf *Makefile) SourceFiles() []string {
	set := map[string]bool{}
	for _, r := range mf.Rules {
		for _, d := range r.Deps {
			if mf.Rule(d) == nil {
				set[d] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
