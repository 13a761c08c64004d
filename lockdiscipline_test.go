// Lock discipline of the live coordinator (DESIGN.md §4.14): nothing waits
// on the network while holding the coherence lock x.coh, and nothing a
// receive loop runs inline waits at all. The receive loops take that lock to
// install write-backs, so a holder waiting for anything a receive loop
// delivers — a reply, a frame, a channel another goroutine feeds — could
// deadlock the protocol, and one waiting for a round trip stalls every other
// task's staging for its length. A receive loop that waits stops delivering
// its worker's frames for as long.
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
// itself declares; a call through an interface, or into another package, is
// judged by its method name alone — except a call of a *core.Engine method,
// which may fire the hooks the package handed the engine (core.Hooks) on
// the calling goroutine, and so is followed into each of them.
type lockCheck struct {
	fset  *token.FileSet
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl
	memo  map[ast.Node][]string
	// hooks are the bodies of the functions in the package's core.Hooks
	// literal, by field name.
	hooks map[string]ast.Node
	// skip holds calls not to count: a receive loop's own Recv.
	skip map[ast.Node]bool
}

// loadLive parses and type-checks internal/exec/live and indexes its
// functions and engine hooks. It returns the function declarations in
// source order.
func loadLive(t *testing.T) (*lockCheck, []*ast.FuncDecl) {
	t.Helper()
	const dir = "internal/exec/live"
	fset := token.NewFileSet()
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
		skip:  map[ast.Node]bool{},
	}
	// Dependencies are type-checked from source: no export data needed, so
	// the test runs wherever `go vet` does.
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("repro/"+dir, fset, files, c.info); err != nil {
		t.Fatal(err)
	}
	var decls []*ast.FuncDecl
	for _, file := range files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				c.decls[c.info.Defs[fd.Name].(*types.Func)] = fd
				decls = append(decls, fd)
			}
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].Pos() < decls[j].Pos() })
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
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
	var id *ast.Ident
	switch fn := call.Fun.(type) {
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

// cohCall reports whether stmt is the statement `<expr>.coh.<method>()`.
func cohCall(stmt ast.Stmt, method string) bool {
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
	return ok && mu.Sel.Name == "coh"
}

// blocking lists the waits reachable from n, each as "position: what, via
// the chain of calls that leads there". A go statement is not followed: what
// it starts runs on a goroutine of its own.
func (c *lockCheck) blocking(n ast.Node) []string {
	var found []string
	at := func(n ast.Node, what string) {
		found = append(found, fmt.Sprintf("%s: %s", c.fset.Position(n.Pos()), what))
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
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
			f := c.callee(n)
			if f == nil || c.skip[n] {
				break
			}
			if waits[f.Name()] {
				at(n, "call of "+f.FullName())
			}
			if fd := c.decls[f]; fd != nil {
				for _, v := range c.reach(fd.Body) {
					found = append(found, v+" <- "+f.Name())
				}
			}
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
// x.coh", a closure handed to retryOnLoss, the statements between
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
	// held checks the stretch of a statement list that runs between
	// x.coh.Lock() and x.coh.Unlock() (or the end of the list, when the
	// unlock is deferred).
	held := func(in string, list []ast.Stmt) {
		for i := 0; i < len(list); i++ {
			if !cohCall(list[i], "Lock") {
				continue
			}
			j := i + 1
			for j < len(list) && !cohCall(list[j], "Unlock") {
				j++
			}
			nodes := make([]ast.Node, 0, j-i-1)
			for _, s := range list[i+1 : j] {
				nodes = append(nodes, s)
			}
			check(fmt.Sprintf("%s, between x.coh.Lock() at %s and its Unlock,", in, c.fset.Position(list[i].Pos())), nodes...)
			i = j
		}
	}
	for _, fd := range decls {
		name := fd.Name.Name
		if strings.HasSuffix(name, "Locked") || strings.Contains(fd.Doc.Text(), "Requires x.coh") {
			check(name, fd.Body)
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if f := c.callee(n); f != nil && f.Name() == "retryOnLoss" {
					for _, arg := range n.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							check("the closure "+name+" passes to retryOnLoss", lit.Body)
						}
					}
				}
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
	if roots < 10 {
		t.Fatalf("found only %d pieces of code that hold x.coh in internal/exec/live: the conventions this test keys on have moved", roots)
	}
}

// TestReceiveLoopsNeverWait walks what the coordinator's and the worker's
// receive loops run inline — every frame handler not started with go, and,
// through the engine calls they make, the hooks the engine fires on the
// loop's goroutine: a retirement or release readies tasks, and onReady
// dispatches them right there — and fails if any of it receives from a
// channel, selects without a default, or calls rpc, rpcAwait, Recv, Wait or
// awaitEpoch. The loop's own Recv is the one wait allowed. A dispatch that
// must wait for the membership to change continues on a goroutine of its
// own (dispatchParked); call it inline and this test names the chain.
func TestReceiveLoopsNeverWait(t *testing.T) {
	c, decls := loadLive(t)
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
			if msg := fd.Name.Name + " can wait:\n\t" + v; !reported[msg] {
				reported[msg] = true
				t.Error(msg)
			}
		}
	}
	if loops != 2 {
		t.Fatalf("found %d receive loops (recvLoop, loop) in internal/exec/live, want 2: the conventions this test keys on have moved", loops)
	}
	for _, fd := range decls {
		if fd.Name.Name == "dispatch" {
			if _, walked := c.memo[fd.Body]; !walked {
				t.Fatal("the walk never reached dispatch: it no longer follows the engine's Ready hook")
			}
			return
		}
	}
	t.Fatal("no dispatch in internal/exec/live: the conventions this test keys on have moved")
}
