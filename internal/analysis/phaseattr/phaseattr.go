// Package phaseattr checks the failure-attribution invariants introduced
// with the collective abort protocol (DESIGN.md §9): when a collective
// fails, the surviving ranks must learn *which pipeline phase* died, so
// phase-scoped fault injection and the error taxonomy stay truthful.
//
// Two rules:
//
//  1. Phase before blocking. Inside the dump/restore pipeline (packages
//     ending in internal/core or internal/telemetry), a blocking
//     collective call — collectives.Barrier/Bcast/Gather/Allgather/
//     Allreduce/Reduce/AllgatherInt64, or (*collectives.Window).Wait/Next —
//     must be lexically preceded, in the same function, by a call to
//     collectives.NotePhase (directly or inside an earlier closure such
//     as the pipeline's begin() helper). Helpers that run with the phase
//     already published by their caller carry a `//dedupvet:phased` doc
//     directive.
//
//  2. Attributed construction. Outside the collectives package itself, a
//     composite literal of collectives.CollectiveError must set the Phase
//     field — an unattributed CollectiveError erases exactly the context
//     the taxonomy exists to carry. Audited sites (e.g. pre-pipeline
//     validation) use a `//dedupvet:phased` line suppression.
package phaseattr

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"dedupcr/internal/analysis"
)

// Analyzer is the phase-attribution checker.
var Analyzer = &analysis.Analyzer{
	Name: "phaseattr",
	Doc: "require NotePhase before blocking collectives in the pipeline and " +
		"Phase attribution on constructed CollectiveErrors",
	Run: run,
}

// Directive marks a function whose caller establishes the phase, or an
// audited CollectiveError construction site.
const Directive = "phased"

// collectivesPkg is the path suffix of the collective runtime package.
const collectivesPkg = "internal/collectives"

// pipelinePkgSuffixes scope rule 1.
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
	inPipeline := false
	for _, suffix := range pipelinePkgSuffixes {
		if pass.PathHasSuffix(suffix) {
			inPipeline = true
			break
		}
	}
	if inPipeline {
		for _, fn := range pass.FuncDecls() {
			if fn.Body == nil {
				continue
			}
			if _, phased := analysis.FuncDirective(fn, Directive); phased {
				continue
			}
			checkPhaseBeforeBlocking(pass, fn)
		}
	}
	if !pass.PathHasSuffix(collectivesPkg) {
		checkErrorAttribution(pass)
	}
	return nil
}

// checkPhaseBeforeBlocking enforces rule 1 on one function.
func checkPhaseBeforeBlocking(pass *analysis.Pass, fn *ast.FuncDecl) {
	type site struct {
		pos  token.Pos
		name string
	}
	var notePos []token.Pos
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
			notePos = append(notePos, call.Pos())
		case callee.Type().(*types.Signature).Recv() == nil && blockingCollectives[callee.Name()]:
			blocking = append(blocking, site{call.Pos(), callee.Name()})
		case (callee.Name() == "Wait" || callee.Name() == "Next") && recvIsWindow(callee):
			blocking = append(blocking, site{call.Pos(), "Window." + callee.Name()})
		}
		return true
	})
	if len(blocking) == 0 {
		return
	}
	sort.Slice(notePos, func(i, j int) bool { return notePos[i] < notePos[j] })
	for _, b := range blocking {
		covered := len(notePos) > 0 && notePos[0] < b.pos
		if !covered && !pass.Suppressed(b.pos, Directive) {
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

// checkErrorAttribution enforces rule 2 over the whole package.
func checkErrorAttribution(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[lit]
			if !ok || !isCollectiveError(tv.Type) {
				return true
			}
			for _, elt := range lit.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Phase" {
						return true
					}
				}
			}
			if !pass.Suppressed(lit.Pos(), Directive) {
				pass.Reportf(lit.Pos(), "CollectiveError constructed without Phase attribution (set Phase, or annotate the audited site with %s%s)",
					analysis.DirectivePrefix, Directive)
			}
			return true
		})
	}
}

// isCollectiveError matches collectives.CollectiveError (or a pointer).
func isCollectiveError(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "CollectiveError" &&
		analysis.PkgPathHasSuffix(named.Obj().Pkg().Path(), collectivesPkg)
}
