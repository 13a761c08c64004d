// Lock discipline of the live coordinator (DESIGN.md §4.14): nothing waits
// on the network while holding the coherence lock x.coh; nothing a receive
// loop runs inline waits at all, nor starts a goroutine but a membership
// event's; and no continuation fires while x.coh or x.mu is held. The
// receive loops take that lock to install write-backs, so a holder waiting
// for anything a receive loop delivers — a reply, a frame, a channel another
// goroutine feeds — could deadlock the protocol, and one waiting for a round
// trip stalls every other task's staging for its length. A receive loop that
// waits stops delivering its worker's frames for as long. Every coordinator
// wait is a continuation — the wake handed to the engine, a step handed to
// the park list, an inline child's start — that runs on whichever goroutine
// fires it, which is why the walks follow them as if called, and why none
// may fire under a lock it takes itself.
package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"sort"
	"strings"
	"testing"
)

// waits are the calls that block on a peer or on another goroutine, by
// function or method name: request/reply helpers, a transport receive, a
// condition-variable or wait-group wait, and the membership-epoch wait.
var waits = map[string]bool{"rpc": true, "rpcAwait": true, "Recv": true, "Wait": true, "awaitEpoch": true}

// lockCheck finds what a piece of internal/exec/live can reach. Calls are
// resolved by the type checker and followed into every function the package
// itself declares, or the runner pool its worker runs task bodies on
// (internal/exec/pool); a call through an interface, or into another
// package, is judged by its method name alone — except a call of a
// *core.Engine method, which may fire the hooks the package handed the
// engine (core.Hooks) on the calling goroutine, and so is followed into
// each of them. A function literal is walked where it is written, and a
// function of the package handed to a call as a value — a wake, a parked
// step — as if it were called there: a continuation runs on whichever
// goroutine fires it.
type lockCheck struct {
	fset  *token.FileSet
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl
	memo  map[ast.Node][]string
	// hooks are the bodies of the functions in the package's core.Hooks
	// literal, by field name.
	hooks map[string]ast.Node
	// lits are the function literals bound to local names (f := func…),
	// which a call of the name is followed into.
	lits map[types.Object]*ast.FuncLit
	// skip holds calls not to count: a receive loop's own Recv.
	skip map[ast.Node]bool
	// flag names what a call does that the walk is looking for, or "".
	flag func(call *ast.CallExpr, f *types.Func) string
	// goes reports go statements too (they are never followed).
	goes bool
}

// loadLive parses and type-checks internal/exec/live and the runner pool,
// and indexes their functions and the live package's engine hooks. It
// returns the live package's function declarations in source order.
func loadLive(t *testing.T) (*lockCheck, []*ast.FuncDecl) {
	t.Helper()
	const dir, poolDir = "internal/exec/live", "internal/exec/pool"
	fset := token.NewFileSet()
	parse := func(dir string) []*ast.File {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				files = append(files, file)
			}
		}
		return files
	}
	files, poolFiles := parse(dir), parse(poolDir)
	c := &lockCheck{
		fset: fset,
		info: &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		decls: map[*types.Func]*ast.FuncDecl{},
		memo:  map[ast.Node][]string{},
		hooks: map[string]ast.Node{},
		lits:  map[types.Object]*ast.FuncLit{},
		skip:  map[ast.Node]bool{},
		flag: func(_ *ast.CallExpr, f *types.Func) string {
			if f != nil && waits[f.Name()] {
				return "call of " + f.FullName()
			}
			return ""
		},
	}
	// Dependencies are type-checked from source: no export data needed, so
	// the test runs wherever `go vet` does. The pool is checked first, into
	// the same Info, and the live package imports that very package, so a
	// call into the pool resolves to a declaration the walks can follow.
	src := importer.ForCompiler(fset, "source", nil)
	poolPkg, err := (&types.Config{Importer: src}).Check("repro/"+poolDir, fset, poolFiles, c.info)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if path == poolPkg.Path() {
			return poolPkg, nil
		}
		return src.Import(path)
	})}
	if _, err := conf.Check("repro/"+dir, fset, files, c.info); err != nil {
		t.Fatal(err)
	}
	var decls []*ast.FuncDecl
	for i, file := range append(files, poolFiles...) {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				c.decls[c.info.Defs[fd.Name].(*types.Func)] = fd
				if i < len(files) {
					decls = append(decls, fd)
				}
			}
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].Pos() < decls[j].Pos() })
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					id, isID := as.Lhs[i].(*ast.Ident)
					if lit, isLit := rhs.(*ast.FuncLit); isID && isLit {
						if obj := c.info.Defs[id]; obj != nil {
							c.lits[obj] = lit
						} else if obj := c.info.Uses[id]; obj != nil {
							c.lits[obj] = lit
						}
					}
				}
			}
			lit, ok := n.(*ast.CompositeLit)
			if !ok || !isCore(c.info.Types[lit].Type, "Hooks") {
				return true
			}
			for _, el := range lit.Elts {
				kv := el.(*ast.KeyValueExpr)
				switch v := kv.Value.(type) {
				case *ast.FuncLit:
					c.hooks[kv.Key.(*ast.Ident).Name] = v.Body
				case *ast.SelectorExpr:
					if f, ok := c.info.Uses[v.Sel].(*types.Func); ok && c.decls[f] != nil {
						c.hooks[kv.Key.(*ast.Ident).Name] = c.decls[f]
					}
				}
			}
			return true
		})
	}
	if c.hooks["Ready"] == nil {
		t.Fatalf("no core.Hooks literal with a Ready hook the package declares in %s: the conventions this test keys on have moved", dir)
	}
	return c, decls
}

// importerFunc is a types.Importer written as a function.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// isCore reports whether typ is repro/internal/core's type name, or a
// pointer to it.
func isCore(typ types.Type, name string) bool {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	n, ok := typ.(*types.Named)
	return ok && n.Obj().Name() == name && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "repro/internal/core"
}

// callee returns the function or method a call names, or nil for a call of
// a function value or a conversion.
func (c *lockCheck) callee(call *ast.CallExpr) *types.Func {
	return c.funcOf(call.Fun)
}

// funcOf returns the function or method expression e names, or nil.
func (c *lockCheck) funcOf(e ast.Expr) *types.Func {
	var id *ast.Ident
	switch fn := e.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := c.info.Uses[id].(*types.Func)
	return f
}

// lockCall reports whether stmt is the statement `<x>.<lock>.<method>()`
// on the coordinator (*Exec) x.
func (c *lockCheck) lockCall(stmt ast.Stmt, lock, method string) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	mu, ok := sel.X.(*ast.SelectorExpr)
	if !ok || mu.Sel.Name != lock {
		return false
	}
	typ := c.info.Types[mu.X].Type
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	n, ok := typ.(*types.Named)
	return ok && n.Obj().Name() == "Exec"
}

// heldRegions calls check with each stretch of a statement list in decls
// that runs holding the coordinator's lock — between x.<lock>.Lock() and
// x.<lock>.Unlock(), or the end of the list when the unlock is deferred —
// and with each whole function that requires the lock: one named …Locked or
// whose doc says it requires or is called with the lock held.
func (c *lockCheck) heldRegions(decls []*ast.FuncDecl, lock string, check func(what string, nodes ...ast.Node)) {
	held := func(in string, list []ast.Stmt) {
		for i := 0; i < len(list); i++ {
			if !c.lockCall(list[i], lock, "Lock") {
				continue
			}
			j := i + 1
			for j < len(list) && !c.lockCall(list[j], lock, "Unlock") {
				j++
			}
			nodes := make([]ast.Node, 0, j-i-1)
			for _, s := range list[i+1 : j] {
				nodes = append(nodes, s)
			}
			check(fmt.Sprintf("%s, between x.%s.Lock() at %s and its Unlock,", in, lock, c.fset.Position(list[i].Pos())), nodes...)
			i = j
		}
	}
	for _, fd := range decls {
		name, doc := fd.Name.Name, fd.Doc.Text()
		if (lock == "coh" && strings.HasSuffix(name, "Locked")) ||
			strings.Contains(doc, "Requires x."+lock) || strings.Contains(doc, "with x."+lock+" held") {
			check(name, fd.Body)
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				held(name, n.List)
			case *ast.CaseClause:
				held(name, n.Body)
			case *ast.CommClause:
				held(name, n.Body)
			}
			return true
		})
	}
}

// blocking lists the waits reachable from n (or what c.flag looks for),
// each as "position: what, via the chain of calls that leads there". A go
// statement is not followed: what it starts runs on a goroutine of its own.
func (c *lockCheck) blocking(n ast.Node) []string {
	var found []string
	at := func(n ast.Node, what string) {
		found = append(found, fmt.Sprintf("%s: %s", c.fset.Position(n.Pos()), what))
	}
	follow := func(f *types.Func, via string) {
		if fd := c.decls[f.Origin()]; fd != nil { // a generic pool's method, as declared
			for _, v := range c.reach(fd.Body) {
				found = append(found, v+" <- "+via)
			}
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if c.goes {
				what := "a function value"
				if f := c.callee(n.Call); f != nil {
					what = f.Name()
				}
				at(n, "go statement starting "+what)
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				at(n, "channel receive")
			}
		case *ast.SelectStmt:
			polls := false
			for _, cl := range n.Body.List {
				if cl.(*ast.CommClause).Comm == nil {
					polls = true
				}
			}
			if !polls {
				at(n, "select without default")
			}
			// The clause bodies run whichever case fires; the cases
			// themselves have been judged above.
			for _, cl := range n.Body.List {
				for _, s := range cl.(*ast.CommClause).Body {
					ast.Inspect(s, visit)
				}
			}
			return false
		case *ast.CallExpr:
			// A function of the package passed as a value may run at once
			// or later, on whatever goroutine calls it.
			for _, arg := range n.Args {
				if f := c.funcOf(arg); f != nil {
					follow(f, f.Name()+" (passed as a value)")
				}
			}
			if c.skip[n] {
				break
			}
			f := c.callee(n)
			if what := c.flag(n, f); what != "" {
				at(n, what)
			}
			if f == nil {
				if lit := c.boundLit(n); lit != nil {
					for _, v := range c.reach(lit.Body) {
						found = append(found, v+" <- "+n.Fun.(*ast.Ident).Name)
					}
				}
				break
			}
			follow(f, f.Name())
			if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil && isCore(sig.Recv().Type(), "Engine") {
				for _, name := range []string{"Ready", "Violation", "Depend"} {
					if h := c.hooks[name]; h != nil {
						if fd, ok := h.(*ast.FuncDecl); ok {
							h = fd.Body
						}
						for _, v := range c.reach(h) {
							found = append(found, v+" <- "+name+" hook <- "+f.Name())
						}
					}
				}
			}
		}
		return true
	}
	ast.Inspect(n, visit)
	return found
}

// parkedOps calls check with the body of each closure the package passes to
// parkOnLoss(m, op, done) as op, which runs under x.coh, and marks the call
// of op there as walked.
func (c *lockCheck) parkedOps(decls []*ast.FuncDecl, check func(what string, nodes ...ast.Node)) {
	for _, fd := range decls {
		name := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && name == "parkOnLoss" && id.Name == "op" {
				c.skip[call] = true
			}
			if f := c.callee(call); f != nil && f.Name() == "parkOnLoss" && len(call.Args) > 1 {
				if lit, ok := call.Args[1].(*ast.FuncLit); ok {
					check("the closure "+name+" passes to parkOnLoss", lit.Body)
				}
			}
			return true
		})
	}
}

// boundLit returns the function literal a call of a local name runs, or nil.
func (c *lockCheck) boundLit(call *ast.CallExpr) *ast.FuncLit {
	if id, ok := call.Fun.(*ast.Ident); ok {
		return c.lits[c.info.Uses[id]]
	}
	return nil
}

// reach is blocking for a whole function body, memoized; a body being
// visited reports nothing, which cuts recursion.
func (c *lockCheck) reach(body ast.Node) []string {
	if v, ok := c.memo[body]; ok {
		return v
	}
	c.memo[body] = nil
	v := c.blocking(body)
	c.memo[body] = v
	return v
}

// TestNoWaitUnderCoherenceLock walks every piece of internal/exec/live that
// runs holding x.coh — a function named …Locked or documented "Requires
// x.coh", a closure handed to parkOnLoss, the statements between
// x.coh.Lock() and x.coh.Unlock() — and everything those reach inside the
// package, and fails if any of it receives from a channel, selects without
// a default, or calls rpc, rpcAwait, Recv, Wait or awaitEpoch.
func TestNoWaitUnderCoherenceLock(t *testing.T) {
	c, decls := loadLive(t)
	roots := 0
	reported := map[string]bool{}
	check := func(what string, nodes ...ast.Node) {
		roots++
		for _, n := range nodes {
			for _, v := range c.blocking(n) {
				if msg := what + " can wait while holding x.coh:\n\t" + v; !reported[msg] {
					reported[msg] = true
					t.Error(msg)
				}
			}
		}
	}
	c.heldRegions(decls, "coh", check)
	c.parkedOps(decls, check)
	if roots < 10 {
		t.Fatalf("found only %d pieces of code that hold x.coh in internal/exec/live: the conventions this test keys on have moved", roots)
	}
}

// TestReceiveLoopsNeverWait walks what the coordinator's and the worker's
// receive loops run — every frame handler; through the engine calls they
// make, the hooks the engine fires on the loop's goroutine (a retirement or
// release readies tasks, and onReady dispatches them right there); and the
// continuations they register, the wakes handed to the engine and the steps
// handed to the park list, which run on whatever goroutine fires them — and
// fails if any of it receives from a channel, selects without a default, or
// calls rpc, rpcAwait, Recv, Wait or awaitEpoch. The loop's own Recv is the
// one wait allowed. The coordinator's loop may start no goroutine but a
// membership event's (recoverWorker, completeDrain): a request that must
// wait registers a continuation instead. The worker's loop queues dispatches
// on its runner pool, and the walk follows it there: the runners that pool
// starts are the only goroutines the worker's loop starts.
func TestReceiveLoopsNeverWait(t *testing.T) {
	c, decls := loadLive(t)
	c.goes = true
	membership := map[string]bool{"recoverWorker": true, "completeDrain": true}
	loops := 0
	reported := map[string]bool{}
	for _, fd := range decls {
		if fd.Name.Name != "recvLoop" && fd.Name.Name != "loop" {
			continue
		}
		loops++
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if f := c.callee(call); f != nil && f.Name() == "Recv" {
					c.skip[call] = true
				}
			}
			return true
		})
		for _, v := range c.blocking(fd.Body) {
			msg := fd.Name.Name + " can wait:\n\t" + v
			if start, _, _ := strings.Cut(v, " <- "); strings.Contains(start, "go statement starting ") {
				started := start[strings.LastIndex(start, " ")+1:]
				if fd.Name.Name == "loop" || membership[started] {
					continue // the worker's loop starts runners; membership events run apart
				}
				msg = fd.Name.Name + " starts a goroutine that is not a membership event's:\n\t" + v
			}
			if !reported[msg] {
				reported[msg] = true
				t.Error(msg)
			}
		}
	}
	if loops != 2 {
		t.Fatalf("found %d receive loops (recvLoop, loop) in internal/exec/live, want 2: the conventions this test keys on have moved", loops)
	}
	// The walk must have gone where the continuations are: the dispatch of
	// what a retirement readies (the Ready hook), a request's staging (a
	// wake), a parked step, an inline child's start; and into the runner
	// pool a worker's dispatch is queued on.
	for _, name := range []string{"dispatch", "stageDispatch", "parkOnLoss", "startInline", "spawnLocked"} {
		walked := false
		for _, fd := range c.decls {
			if fd.Name.Name == name {
				_, walked = c.memo[fd.Body]
			}
		}
		if !walked {
			t.Errorf("the walk from the receive loops never reached %s: it no longer follows the engine's Ready hook or the continuations", name)
		}
	}
}

// fires are the calls that may run a continuation on the calling goroutine:
// the *core.Engine operations that fire wakes or the Ready hook, the park
// list's entry points and the join an inline child's start waits on.
var fires = map[string]bool{
	"Create": true, "Access": true, "Convert": true, "Complete": true, "Retract": true,
	"EndAccess": true, "ClearAccess": true,
	"bumpEpoch": true, "park": true, "parkOnLoss": true, "onReady": true,
}

// TestNoContinuationUnderLock walks every piece of internal/exec/live that
// runs holding x.coh or x.mu (as TestNoWaitUnderCoherenceLock finds them)
// and fails if any of it can run a continuation: call an engine operation
// that fires wakes or hooks, bumpEpoch, park, parkOnLoss or onReady, or
// call a function value. A continuation takes x.coh to stage and x.mu to
// read the membership, and neither lock is reentrant: fired under one, it
// would deadlock its own goroutine.
func TestNoContinuationUnderLock(t *testing.T) {
	c, decls := loadLive(t)
	c.flag = func(call *ast.CallExpr, f *types.Func) string {
		switch {
		case f == nil:
			// A literal, bound or not, is walked; a builtin or a
			// conversion runs nothing.
			if _, lit := call.Fun.(*ast.FuncLit); lit || c.boundLit(call) != nil {
				break
			}
			if tv := c.info.Types[call.Fun]; !tv.IsType() && !tv.IsBuiltin() {
				return "call of a function value"
			}
		case !fires[f.Name()]:
		case f.Pkg() != nil && f.Pkg().Path() == "repro/internal/exec/live":
			return "call of " + f.Name()
		default:
			if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil && isCore(sig.Recv().Type(), "Engine") {
				return "call of " + f.FullName()
			}
		}
		return ""
	}
	roots := 0
	reported := map[string]bool{}
	for _, lock := range []string{"coh", "mu"} {
		check := func(what string, nodes ...ast.Node) {
			roots++
			for _, n := range nodes {
				for _, v := range c.blocking(n) {
					if msg := what + " can run a continuation while holding x." + lock + ":\n\t" + v; !reported[msg] {
						reported[msg] = true
						t.Error(msg)
					}
				}
			}
		}
		if lock == "coh" {
			c.parkedOps(decls, check)
		}
		c.heldRegions(decls, lock, check)
	}
	if roots < 20 {
		t.Fatalf("found only %d pieces of code that hold x.coh or x.mu in internal/exec/live: the conventions this test keys on have moved", roots)
	}
}
