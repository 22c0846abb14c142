package ssa

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseAndCheck type-checks one file of source and returns its AST and
// type info.
func parseAndCheck(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, file, info
}

// funcBody finds the named function's body.
func funcBody(t *testing.T, file *ast.File, name string) *ast.BlockStmt {
	t.Helper()
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd.Body
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// allReachExit reports whether every block reachable from entry can
// reach the exit block.
func allReachExit(f *Func) bool {
	reach := f.ReachableFromEntry()
	exits := f.CanReachExit()
	for b := range reach {
		if !exits[b] {
			return false
		}
	}
	return true
}

func TestCFGExitPaths(t *testing.T) {
	const src = `package p

func straight() int { x := 1; return x }

func infinite() {
	for {
		_ = 1
	}
}

func breakable() {
	for {
		if true {
			break
		}
	}
}

func selectLoop(stop, kick chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-kick:
		}
		_ = 1
	}
}

func selectNoExit(kick chan struct{}) {
	for {
		select {
		case <-kick:
		}
	}
}

func rangeChan(ch chan int) {
	for v := range ch {
		_ = v
	}
}

func emptySelect() {
	select {}
}

func panics() {
	for {
		panic("die")
	}
}

func condLoop(n int) {
	for i := 0; i < n; i++ {
		_ = i
	}
}

func labeled(ch chan int) {
outer:
	for {
		for {
			select {
			case <-ch:
				break outer
			}
		}
	}
}

func gotoLoop() {
again:
	_ = 1
	goto again
}
`
	_, file, info := parseAndCheck(t, src)
	cases := []struct {
		fn   string
		want bool // every reachable block can reach exit
	}{
		{"straight", true},
		{"infinite", false},
		{"breakable", true},
		{"selectLoop", true},
		{"selectNoExit", false},
		{"rangeChan", true}, // close(ch) ends the range
		{"emptySelect", false},
		{"panics", true}, // panic is an exit, not a leak
		{"condLoop", true},
		{"labeled", true},
		{"gotoLoop", false},
	}
	for _, tc := range cases {
		f := Build(info, funcBody(t, file, tc.fn))
		if got := allReachExit(f); got != tc.want {
			t.Errorf("%s: allReachExit = %v, want %v", tc.fn, got, tc.want)
		}
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	const src = `package p

func sw(x int) int {
	switch x {
	case 1:
		x++
		fallthrough
	case 2:
		return x
	default:
		x--
	}
	return x
}
`
	_, file, info := parseAndCheck(t, src)
	f := Build(info, funcBody(t, file, "sw"))
	if !allReachExit(f) {
		t.Fatalf("switch with fallthrough should reach exit everywhere")
	}
	// Entry must not jump straight to "after": there is a default case.
	reach := f.ReachableFromEntry()
	if len(reach) == 0 {
		t.Fatal("no reachable blocks")
	}
}

func TestCallGraph(t *testing.T) {
	const src = `package p

func a() { b(); c() }
func b() { c() }
func c() {}
var fn = c
func dynamic() { fn() }
`
	_, file, info := parseAndCheck(t, src)
	cg := BuildCallGraph(info, []*ast.File{file})
	if len(cg.Nodes) != 4 {
		t.Fatalf("got %d nodes, want 4", len(cg.Nodes))
	}
	counts := map[string]int{}
	for fn, node := range cg.Nodes {
		for _, call := range node.Calls {
			if call.Callee != nil {
				counts[fn.Name()+"->"+call.Callee.Name()]++
			}
		}
	}
	for _, edge := range []string{"a->b", "a->c", "b->c"} {
		if counts[edge] != 1 {
			t.Errorf("edge %s: got %d, want 1", edge, counts[edge])
		}
	}
	// dynamic's call through a package-level func variable resolves to
	// nothing (fn is a *types.Var).
	for fn, node := range cg.Nodes {
		if fn.Name() != "dynamic" {
			continue
		}
		for _, call := range node.Calls {
			if call.Callee != nil {
				t.Errorf("dynamic call resolved to %v, want nil", call.Callee)
			}
		}
	}
}
