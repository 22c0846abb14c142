package ssa

import (
	"go/ast"
	"go/types"
)

// CallGraph is the package-local call graph: one node per function
// declaration with a body, with edges to every statically resolvable
// callee (in-package or imported).
type CallGraph struct {
	// Nodes maps a declared function object to its node. Only functions
	// declared in the analyzed files (with bodies) have nodes.
	Nodes map[*types.Func]*Node
}

// Node is one declared function and its outgoing calls.
type Node struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Calls []Call
}

// Call is one call site and its resolved callee (nil when the callee is
// dynamic: a function value, interface method, or unresolved closure).
type Call struct {
	Site   *ast.CallExpr
	Callee *types.Func
}

// BuildCallGraph constructs the call graph over the given files.
func BuildCallGraph(info *types.Info, files []*ast.File) *CallGraph {
	cg := &CallGraph{Nodes: make(map[*types.Func]*Node)}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &Node{Fn: fn, Decl: fd}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				node.Calls = append(node.Calls, Call{Site: call, Callee: Callee(info, call)})
				return true
			})
			cg.Nodes[fn] = node
		}
	}
	return cg
}

// Callee resolves the static callee of a call expression, or nil for
// dynamic calls, conversions and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
