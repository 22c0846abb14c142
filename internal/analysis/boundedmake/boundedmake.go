// Package boundedmake checks the bounded-decode invariant: an allocation
// whose size derives from a wire-read length must be dominated by a bound
// check, so a hostile or corrupt length prefix cannot force an arbitrary
// allocation.
//
// The fault only it catches: delete the hint-count bound of
// core.RestoreMeta.UnmarshalBinary (internal/core/meta.go, "restore meta
// claims %d hints") and a u32 count read from a peer-replicated metadata
// blob sizes make(map[fingerprint.FP][]int32, n) — up to 2^32 entries.
// `go build ./... && go test ./...`, `go test -race ./internal/core` and
// `go vet ./...` all pass on that mutation (no test or fuzz seed writes a
// large hint count); boundedmake flags the make. Removing the rank-list
// check of the same decoder or the region-count check of ftrun's
// loadImage also passes every test and is flagged.
//
// The analysis is intraprocedural and lexical:
//
//   - a variable is "wire-tainted" when it is assigned from an expression
//     containing an encoding/binary read (Uint16/32/64, Varint, Read...),
//     directly or transitively through other tainted variables;
//   - a make() whose length or capacity mentions a tainted variable is
//     flagged unless some comparison (if-condition, loop condition, any
//     relational expression) mentioning that variable's taint root appears
//     earlier in the function, or the size is clamped through the min
//     builtin;
//   - a make() whose size expression contains a wire read inline is
//     always flagged — there is no variable to have checked.
//
// There is no suppression directive: bound the length instead.
package boundedmake

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"dedupcr/internal/analysis"
)

// Analyzer is the bounded-decode checker.
var Analyzer = &analysis.Analyzer{
	Name: "boundedmake",
	Doc: "flag make() allocations sized by a wire-read length that is not " +
		"dominated by a bound check",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, fn := range pass.FuncDecls() {
		if fn.Body == nil {
			continue
		}
		checkFunc(pass, fn)
	}
	return nil
}

// event is one position-ordered fact inside a function body.
type event struct {
	pos  token.Pos
	kind eventKind
	node ast.Node
}

type eventKind int

const (
	evAssign eventKind = iota
	evCompare
	evMake
)

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	var events []event
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			events = append(events, event{n.Pos(), evAssign, n})
		case *ast.GenDecl:
			if n.Tok == token.VAR {
				events = append(events, event{n.Pos(), evAssign, n})
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
				events = append(events, event{n.Pos(), evCompare, n})
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "make" && isBuiltin(pass, id) && len(n.Args) >= 2 {
				events = append(events, event{n.Pos(), evMake, n})
			}
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	// taint maps a variable to its taint roots; checked collects roots
	// that appeared in a comparison.
	taint := make(map[types.Object]map[types.Object]bool)
	checked := make(map[types.Object]bool)

	for _, ev := range events {
		switch ev.kind {
		case evAssign:
			applyAssign(pass, ev.node, taint)
		case evCompare:
			for root := range exprRoots(pass, ev.node.(ast.Expr), taint) {
				checked[root] = true
			}
		case evMake:
			call := ev.node.(*ast.CallExpr)
			for _, size := range call.Args[1:] {
				checkSize(pass, call, size, taint, checked)
			}
		}
	}
}

// applyAssign propagates taint through one assignment or var declaration.
func applyAssign(pass *analysis.Pass, n ast.Node, taint map[types.Object]map[types.Object]bool) {
	assign := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		roots := exprRoots(pass, rhs, taint)
		if hasWireRead(pass, rhs) {
			if roots == nil {
				roots = make(map[types.Object]bool)
			}
			roots[obj] = true
		}
		if len(roots) > 0 {
			taint[obj] = roots
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				assign(lhs, n.Rhs[i])
			}
		} else if len(n.Rhs) == 1 {
			for _, lhs := range n.Lhs {
				assign(lhs, n.Rhs[0])
			}
		}
	case *ast.GenDecl:
		for _, spec := range n.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					assign(name, vs.Values[i])
				} else if len(vs.Values) == 1 {
					assign(name, vs.Values[0])
				}
			}
		}
	}
}

// exprRoots returns the union of taint roots of every tainted identifier
// mentioned by e (nil when none).
func exprRoots(pass *analysis.Pass, e ast.Expr, taint map[types.Object]map[types.Object]bool) map[types.Object]bool {
	var roots map[types.Object]bool
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if r, tainted := taint[obj]; tainted {
			if roots == nil {
				roots = make(map[types.Object]bool)
			}
			for root := range r {
				roots[root] = true
			}
		}
		return true
	})
	return roots
}

// isBuiltin reports whether id resolves to a predeclared builtin (or is
// unresolved, which for `make`/`min` spellings means the same).
func isBuiltin(pass *analysis.Pass, id *ast.Ident) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// wireReadExclusions are encoding/binary names that write rather than
// read; their results are not attacker-controlled lengths.
var wireReadExclusions = []string{"Append", "Put", "Write", "Encode", "Size", "String"}

// hasWireRead reports whether e contains a call to an encoding/binary
// read (a wire-length taint source).
func hasWireRead(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := pass.CalleeFunc(call)
		if fn == nil || analysis.FuncPkgPath(fn) != "encoding/binary" {
			return true
		}
		for _, prefix := range wireReadExclusions {
			if strings.HasPrefix(fn.Name(), prefix) {
				return true
			}
		}
		found = true
		return false
	})
	return found
}

// hasMinClamp reports whether e clamps through the min builtin.
func hasMinClamp(pass *analysis.Pass, e ast.Expr) bool {
	clamped := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "min" && isBuiltin(pass, id) {
				clamped = true
			}
		}
		return !clamped
	})
	return clamped
}

// checkSize flags one make() size argument when it is wire-tainted and
// unbounded.
func checkSize(pass *analysis.Pass, call *ast.CallExpr, size ast.Expr, taint map[types.Object]map[types.Object]bool, checked map[types.Object]bool) {
	if hasMinClamp(pass, size) {
		return
	}
	if hasWireRead(pass, size) {
		pass.Reportf(call.Pos(), "make sized directly by a wire read: bound the length through a checked variable first")
		return
	}
	roots := exprRoots(pass, size, taint)
	for root := range roots {
		if !checked[root] {
			pass.Reportf(call.Pos(), "make sized by wire-read length %q without a dominating bound check (compare it against a limit first)", root.Name())
			return
		}
	}
}
