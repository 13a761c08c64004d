// Lock discipline of the live coordinator (DESIGN.md §4.14): nothing waits
// on the network while holding the coherence lock x.coh. The receive loops
// take that lock to install write-backs, so a holder waiting for anything a
// receive loop delivers — a reply, a frame, a channel another goroutine
// feeds — could deadlock the protocol, and one waiting for a round trip
// stalls every other task's staging for its length.
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
// function or method name: request/reply helpers, a transport receive, and
// a condition-variable or wait-group wait.
var waits = map[string]bool{"rpc": true, "rpcAwait": true, "Recv": true, "Wait": true}

// lockCheck finds what code that runs under x.coh can reach. Calls are
// resolved by the type checker and followed into every function the package
// itself declares; a call through an interface, or into another package, is
// judged by its method name alone.
type lockCheck struct {
	fset  *token.FileSet
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl
	memo  map[*ast.FuncDecl][]string
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
// it starts runs without the lock.
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
			// The clause bodies run under the lock whichever case fires;
			// the cases themselves have been judged above.
			for _, cl := range n.Body.List {
				for _, s := range cl.(*ast.CommClause).Body {
					ast.Inspect(s, visit)
				}
			}
			return false
		case *ast.CallExpr:
			f := c.callee(n)
			if f == nil {
				break
			}
			if waits[f.Name()] {
				at(n, "call of "+f.FullName())
			}
			if fd := c.decls[f]; fd != nil {
				for _, v := range c.reach(fd) {
					found = append(found, v+" <- "+f.Name())
				}
			}
		}
		return true
	}
	ast.Inspect(n, visit)
	return found
}

// reach is blocking for a whole function, memoized; a function being
// visited reports nothing, which cuts recursion.
func (c *lockCheck) reach(fd *ast.FuncDecl) []string {
	if v, ok := c.memo[fd]; ok {
		return v
	}
	c.memo[fd] = nil
	v := c.blocking(fd.Body)
	c.memo[fd] = v
	return v
}

// TestNoWaitUnderCoherenceLock walks every piece of internal/exec/live that
// runs holding x.coh — a function named …Locked or documented "Requires
// x.coh", a closure handed to retryOnLoss, the statements between
// x.coh.Lock() and x.coh.Unlock() — and everything those reach inside the
// package, and fails if any of it receives from a channel, selects without
// a default, or calls rpc, rpcAwait, Recv or Wait.
func TestNoWaitUnderCoherenceLock(t *testing.T) {
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
		fset:  fset,
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		decls: map[*types.Func]*ast.FuncDecl{},
		memo:  map[*ast.FuncDecl][]string{},
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
			check(fmt.Sprintf("%s, between x.coh.Lock() at %s and its Unlock,", in, fset.Position(list[i].Pos())), nodes...)
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
		t.Fatalf("found only %d pieces of code that hold x.coh in %s: the conventions this test keys on have moved", roots, dir)
	}
}
