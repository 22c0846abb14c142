// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis API shape, built on the standard
// library's go/ast and go/types only. It exists because three of the
// repo's invariants — failure attribution (phaseattr), lock annotations
// (guardedby) and bounded decode allocations (boundedmake) — cannot be
// expressed in generic vet/staticcheck checks, and the build environment
// pins dependencies to the standard library.
// An analyzer lives here only while it catches a fault that the tests,
// the race detector and go vet all miss; its package doc names that
// fault and the site where it would land.
//
// The shapes mirror x/tools deliberately (Analyzer, Pass, Diagnostic), so
// the analyzers under internal/analysis/... could be ported to the real
// framework by swapping imports if the dependency ever becomes available.
//
// # Directives
//
// Suppressions share one spelling: a `//dedupvet:<name>` comment on the
// offending line, on the line directly above it, or in the doc comment of
// the enclosing declaration. Each analyzer documents the forms it honours
// (`//dedupvet:phased` on a caller-phased function for phaseattr,
// `//dedupvet:locked` for guardedby; boundedmake has none). Directives
// deliberately require an audit trail: they mark a site a human has
// reviewed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// An Analyzer is one machine-checked invariant: a name, what it checks,
// and the function that checks one package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid Go
	// identifier.
	Name string
	// Doc is the one-line description printed in dedupvet's usage text.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Report/Reportf. The error return is for operational failures
	// (not findings); it aborts the whole run.
	Run func(*Pass) error
}

// A Pass is one (analyzer, package) unit of work, carrying everything the
// analyzer may inspect.
type Pass struct {
	Analyzer *Analyzer
	// Fset maps token positions of Files to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed source files (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo carries the type-checker's fact tables for Files.
	TypesInfo *types.Info
	// Report delivers one finding. The driver installs it.
	Report func(Diagnostic)

	directives map[*ast.File]directiveIndex
}

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// PathHasSuffix reports whether the package path equals suffix or ends in
// "/"+suffix. Analyzers scope themselves by path suffix so the same rule
// matches both the real tree ("dedupcr/internal/core") and analysistest
// fixtures ("internal/core").
func (p *Pass) PathHasSuffix(suffix string) bool {
	return PkgPathHasSuffix(p.Pkg.Path(), suffix)
}

// directiveIndex maps source lines to the directive names written on them.
type directiveIndex map[int][]string

// DirectivePrefix is the comment prefix shared by all analyzers.
const DirectivePrefix = "//dedupvet:"

// directiveName returns the name of the `//dedupvet:<name> [reason]`
// directive in one comment's text, or "".
func directiveName(text string) string {
	body, ok := strings.CutPrefix(text, DirectivePrefix)
	if !ok {
		return ""
	}
	name, _, _ := strings.Cut(body, " ")
	return strings.TrimSpace(name)
}

// fileDirectives builds (and caches) the line index of file's directives.
func (p *Pass) fileDirectives(file *ast.File) directiveIndex {
	if idx, ok := p.directives[file]; ok {
		return idx
	}
	idx := directiveIndex{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if name := directiveName(c.Text); name != "" {
				line := p.Fset.Position(c.Slash).Line
				idx[line] = append(idx[line], name)
			}
		}
	}
	if p.directives == nil {
		p.directives = make(map[*ast.File]directiveIndex)
	}
	p.directives[file] = idx
	return idx
}

// File returns the *ast.File of Files that contains pos, or nil.
func (p *Pass) File(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// Suppressed reports whether a `//dedupvet:<name>` directive covers pos:
// written on the same line or on the line directly above.
func (p *Pass) Suppressed(pos token.Pos, name string) bool {
	file := p.File(pos)
	if file == nil {
		return false
	}
	idx := p.fileDirectives(file)
	line := p.Fset.Position(pos).Line
	return slices.Contains(idx[line], name) || slices.Contains(idx[line-1], name)
}

// FuncDirective reports whether fn's doc comment carries the
// `//dedupvet:<name>` directive.
func FuncDirective(fn *ast.FuncDecl, name string) bool {
	if fn == nil || fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if directiveName(c.Text) == name {
			return true
		}
	}
	return false
}

// FuncDecls yields every top-level function declaration of the pass, file
// by file in Fset order.
func (p *Pass) FuncDecls() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				out = append(out, fn)
			}
		}
	}
	return out
}

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for indirect/builtin calls.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// FuncPkgPath returns the import path of the package declaring fn, or "".
func FuncPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// PkgPathHasSuffix reports whether path equals suffix or ends in
// "/"+suffix (see Pass.PathHasSuffix).
func PkgPathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer —
// the stable presentation order of every driver.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
