// Import layering (the package dependency diagram in DESIGN.md §2): the
// edges the design forbids, checked against the import clauses of every
// non-test file in the module. Test files may reach upward for end-to-end
// checks; the bench/ module is separate and not walked.
package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// forbidden lists the import edges that must not exist. from and to are
// package paths below the module root "repro", each standing for the
// package and everything under it ("" = the whole module); except names
// importers the rule does not cover. A to that starts with "std:" names a
// standard-library package instead.
var forbidden = []struct {
	from, to string
	except   []string
	why      string
}{
	{from: "internal/exec/live", to: "internal/exec/dist",
		why: "the live executor shares stat types through internal/rt, not through the simulated one"},
	{from: "internal/coherence", to: "internal/exec", why: "the protocol's bookkeeping sits below its two hosts"},
	{from: "internal/coherence", to: "internal/transport", why: "how bytes move is the host's business"},
	{from: "internal/coherence", to: "internal/sim", why: "no time: the host supplies the clock"},
	{from: "internal/coherence", to: "internal/trace", why: "events are emitted by the hosts, where they always were"},
	{from: "internal/coherence", to: "internal/netmodel", why: "how bytes move is the host's business"},
	{from: "internal/coherence", to: "internal/machine", why: "platforms belong to the simulated host"},
	{from: "internal/coherence", to: "std:sync", why: "no locks: the host serialises calls"},
	{from: "internal/coherence", to: "std:time", why: "no time: the host supplies the clock"},
	{from: "internal/coherence", to: "internal/rt",
		why: "it holds only what both hosts share: running a task body (exec/dist's replay) is one host's business"},
	{from: "", to: "internal/coherence",
		except: []string{"internal/coherence", "internal/exec/dist", "internal/exec/live"},
		why:    "only the two message-passing executors host the coherence protocol"},
	{from: "internal/trace", to: "internal/exec", why: "the event stream sits below the executors"},
	{from: "internal/obs", to: "internal/exec", why: "exporters read events, not executors"},
	{from: "internal/profile", to: "internal/exec", why: "the profiler reads events, not executors"},
	{from: "internal/rt", to: "internal/exec", why: "the executor contract sits below its implementations"},
	{from: "internal/exec/pool", to: "internal/exec", why: "the runner pool sits below the executors that run on it"},
	{from: "internal/exec/pool", to: "internal/core", why: "the runner pool runs items, not tasks: the engine is its hosts' business"},
	{from: "internal/exec/pool", to: "jade", why: "the runner pool sits below the public API"},
	{from: "internal", to: "jade",
		// Jade programs and their harnesses are written against the public
		// API, like any user's program.
		except: []string{"internal/apps", "internal/experiments", "internal/integration"},
		why:    "the runtime sits below the public API"},
	{from: "", to: "bench", why: "the benchmark measures this module from outside"},
	// The live fleet builder (internal/exec/live/fleet.go) is the one
	// place that picks a transport; jade keeps tcp.Dial for ServeWorker.
	{from: "jade", to: "internal/transport/inproc", why: fleetPicks},
	{from: "internal/exec/live/tenant", to: "internal/transport/inproc", why: fleetPicks},
	{from: "internal/exec/live/tenant", to: "internal/transport/tcp", why: fleetPicks},
	{from: "internal/exec/live/livetest", to: "internal/transport/inproc", why: fleetPicks},
	{from: "internal/exec/live/livetest", to: "internal/transport/tcp", why: fleetPicks},
}

const fleetPicks = "workers start through live.StartFleet, the one place that picks a transport"

func TestImportLayering(t *testing.T) {
	under := func(path, prefix string) bool {
		return prefix == "" || path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		if pkg == "." {
			pkg = ""
		}
		for _, spec := range f.Imports {
			full, _ := strconv.Unquote(spec.Path.Value)
			imp := "std:" + full
			if full == "repro" || strings.HasPrefix(full, "repro/") {
				imp = strings.TrimPrefix(strings.TrimPrefix(full, "repro"), "/")
			}
			for _, rule := range forbidden {
				hit := under(pkg, rule.from) && under(imp, rule.to)
				for _, ex := range rule.except {
					hit = hit && !under(pkg, ex)
				}
				if hit {
					t.Errorf("%s imports %s: %s", path, full, rule.why)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
