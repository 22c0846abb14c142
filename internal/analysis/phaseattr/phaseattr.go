// Package phaseattr checks the failure-attribution invariants introduced
// with the collective abort protocol (DESIGN.md §9): when a collective
// fails, the surviving ranks must learn *which pipeline phase* died, so
// phase-scoped fault injection and the error taxonomy stay truthful.
//
// The rule: inside the dump/restore pipeline (packages ending in
// internal/core or internal/telemetry), a blocking collective call —
// collectives.Barrier/Bcast/Gather/Allgather/Allreduce/Reduce/
// AllgatherInt64, or (*collectives.Window).Wait/Next — must be lexically
// preceded, in the same function, by a call to collectives.NotePhase
// (directly or inside an earlier closure such as the pipeline's begin()
// helper). Helpers that run with the phase already published by their
// caller carry a `//dedupvet:phased` doc directive.
//
// The fault only this rule catches: delete the four collectives.NotePhase
// calls of core's restoreOutput (restore-meta, assemble, restore-commit,
// restore-barrier) — the gap this analyzer found when it was added — and
// a rank failing anywhere in the restore is reported under whatever phase
// the communicator noted last, stale or empty. `go build ./... && go test
// ./...`, `go test -race ./internal/core` and `go vet ./...` all pass on
// that mutation; phaseattr flags the restore barrier.
package phaseattr

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"dedupcr/internal/analysis"
)

// Analyzer is the phase-attribution checker.
var Analyzer = &analysis.Analyzer{
	Name: "phaseattr",
	Doc:  "require NotePhase before blocking collectives in the dump/restore pipeline",
	Run:  run,
}

// Directive marks a function whose caller establishes the phase.
const Directive = "phased"

// collectivesPkg is the path suffix of the collective runtime package.
const collectivesPkg = "internal/collectives"

// pipelinePkgSuffixes scope the rule.
var pipelinePkgSuffixes = []string{"internal/core", "internal/telemetry"}

// blockingCollectives are the package-level collective entry points that
// synchronize with peers.
var blockingCollectives = map[string]bool{
	"Barrier":        true,
	"Bcast":          true,
	"Gather":         true,
	"Allgather":      true,
	"AllgatherInt64": true,
	"Allreduce":      true,
	"Reduce":         true,
}

func run(pass *analysis.Pass) error {
	if !slices.ContainsFunc(pipelinePkgSuffixes, pass.PathHasSuffix) {
		return nil
	}
	for _, fn := range pass.FuncDecls() {
		if fn.Body != nil && !analysis.FuncDirective(fn, Directive) {
			checkPhaseBeforeBlocking(pass, fn)
		}
	}
	return nil
}

// checkPhaseBeforeBlocking enforces the rule on one function.
func checkPhaseBeforeBlocking(pass *analysis.Pass, fn *ast.FuncDecl) {
	type site struct {
		pos  token.Pos
		name string
	}
	var firstNote token.Pos // ast.Inspect visits in source order
	var blocking []site
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := pass.CalleeFunc(call)
		if callee == nil || !analysis.PkgPathHasSuffix(analysis.FuncPkgPath(callee), collectivesPkg) {
			return true
		}
		switch {
		case callee.Name() == "NotePhase":
			if firstNote == token.NoPos {
				firstNote = call.Pos()
			}
		case callee.Type().(*types.Signature).Recv() == nil && blockingCollectives[callee.Name()]:
			blocking = append(blocking, site{call.Pos(), callee.Name()})
		case (callee.Name() == "Wait" || callee.Name() == "Next") && recvIsWindow(callee):
			blocking = append(blocking, site{call.Pos(), "Window." + callee.Name()})
		}
		return true
	})
	for _, b := range blocking {
		if firstNote == token.NoPos || b.pos < firstNote {
			pass.Reportf(b.pos, "blocking collective %s without a preceding NotePhase: a failure here cannot be attributed to a pipeline phase (call NotePhase first, or mark a caller-phased helper with %s%s)",
				b.name, analysis.DirectivePrefix, Directive)
		}
	}
}

// recvIsWindow reports whether fn is a method on collectives.Window.
func recvIsWindow(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Window"
}
