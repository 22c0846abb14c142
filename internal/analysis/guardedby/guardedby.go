// Package guardedby is a lightweight lock-annotation checker. Struct
// fields documented with `// guarded by <mu>` (or `//dedupvet:guardedby
// <mu>`) may only be touched after the named mutex was acquired — the
// shared mailbox, the TCP connection table and the reduce-round stats are
// the motivating cases: all are mutated from transport reader goroutines
// and read from collective callers, and a missed lock is a data race the
// race detector only catches when a test happens to interleave.
//
// The check is intraprocedural and lexical, erring toward simplicity:
//
//   - a guarded field use (selector expression) inside the declaring
//     package must be preceded, in the same function, by a call to
//     <something>.<mu>.Lock() or .RLock();
//   - functions that run with the lock held by their caller either end in
//     "Locked" or carry a `//dedupvet:locked` doc directive;
//   - constructor-time initialization before the value escapes is
//     annotated per-line with `//dedupvet:locked`.
//
// The analyzer does not try to match the receiver expression of the lock
// call against the field's base object, nor track Unlock: it is an
// annotation auditor, not a race detector — the race detector remains the
// dynamic backstop.
//
// The fault only it catches: delete the s.mu.Lock/defer s.mu.Unlock pair
// from (*storage.SegStore).Usage and the method reads failed, liveBytes
// and liveChunks while concurrent puts and releases write them under the
// lock — a data race. `go build ./... && go test ./...`,
// `go test -race ./internal/storage` and `go vet ./...` all pass on that
// mutation, because no test calls Usage while another goroutine writes.
package guardedby

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"dedupcr/internal/analysis"
)

// Analyzer is the guarded-by annotation checker.
var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc:  "check that `// guarded by mu` struct fields are only accessed with the named mutex held",
	Run:  run,
}

// Directive (as a doc directive or line suppression) marks code that runs
// with the guarding lock already held.
const Directive = "locked"

// guardedRe matches the free-text annotation form.
var guardedRe = regexp.MustCompile(`(?i)\bguarded by (\w+)\b`)

// guard records one annotated field and its guarding mutex name.
type guard struct {
	field *types.Var
	mu    string
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, fn := range pass.FuncDecls() {
		if fn.Body == nil || strings.HasSuffix(fn.Name.Name, "Locked") {
			continue
		}
		if analysis.FuncDirective(fn, Directive) {
			continue
		}
		checkFunc(pass, fn, guards)
	}
	return nil
}

// collectGuards finds annotated struct fields in the package. Embedded
// fields have no Names entry, so they are resolved positionally through
// the checked struct type — an annotation on an embedded field used to
// be dropped silently.
func collectGuards(pass *analysis.Pass) map[types.Object]guard {
	guards := make(map[types.Object]guard)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			var stType *types.Struct
			if tv, ok := pass.TypesInfo.Types[st]; ok {
				stType, _ = tv.Type.(*types.Struct)
			}
			idx := 0
			for _, field := range st.Fields.List {
				width := len(field.Names)
				if width == 0 {
					width = 1 // embedded field
				}
				mu := fieldGuard(field)
				if mu == "" {
					idx += width
					continue
				}
				if len(field.Names) == 0 {
					if stType != nil && idx < stType.NumFields() {
						obj := stType.Field(idx)
						guards[obj] = guard{field: obj, mu: mu}
					}
					idx++
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = guard{field: obj.(*types.Var), mu: mu}
					}
					idx++
				}
			}
			return true
		})
	}
	return guards
}

// fieldGuard extracts the guarding mutex name from a field's doc or
// trailing comment, or "".
func fieldGuard(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, analysis.DirectivePrefix+"guardedby") {
				args := strings.TrimSpace(strings.TrimPrefix(c.Text, analysis.DirectivePrefix+"guardedby"))
				if args != "" {
					return args
				}
			}
			if m := guardedRe.FindStringSubmatch(c.Text); m != nil {
				return m[1]
			}
		}
	}
	return ""
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, guards map[types.Object]guard) {
	// lockPos collects, per mutex name, the positions of Lock/RLock calls.
	lockPos := make(map[string][]token.Pos)
	type use struct {
		pos token.Pos
		g   guard
	}
	var uses []use
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if mu := lockedMutex(pass, n); mu != "" {
				lockPos[mu] = append(lockPos[mu], n.Pos())
			}
		case *ast.SelectorExpr:
			sel, ok := pass.TypesInfo.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			if g, guarded := guards[sel.Obj()]; guarded {
				uses = append(uses, use{n.Sel.Pos(), g})
			}
		}
		return true
	})
	for mu := range lockPos {
		sort.Slice(lockPos[mu], func(i, j int) bool { return lockPos[mu][i] < lockPos[mu][j] })
	}
	for _, u := range uses {
		held := len(lockPos[u.g.mu]) > 0 && lockPos[u.g.mu][0] < u.pos
		if !held && !pass.Suppressed(u.pos, Directive) {
			pass.Reportf(u.pos, "field %s is guarded by %q but accessed without a preceding %s.Lock/RLock (acquire the lock, name the function ...Locked, or annotate with %s%s)",
				u.g.field.Name(), u.g.mu, u.g.mu, analysis.DirectivePrefix, Directive)
		}
	}
}

// lockedMutex returns the mutex field name when call is
// <expr>.<mu>.Lock() or <expr>.<mu>.RLock(), else "". A promoted call
// through an embedded mutex (s.Lock() on a struct embedding
// sync.Mutex) is credited to the embedded field's implicit name
// ("Mutex", "RWMutex"), matching the `// guarded by Mutex` annotation.
func lockedMutex(pass *analysis.Pass, call *ast.CallExpr) string {
	outer, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (outer.Sel.Name != "Lock" && outer.Sel.Name != "RLock") {
		return ""
	}
	if sel, ok := pass.TypesInfo.Selections[outer]; ok && sel.Kind() == types.MethodVal {
		if idx := sel.Index(); len(idx) > 1 {
			// Promotion path: every hop but the last is an embedded
			// field; the final field hop is the mutex itself.
			t := sel.Recv()
			name := ""
			for _, i := range idx[:len(idx)-1] {
				s, ok := deref(t).Underlying().(*types.Struct)
				if !ok || i >= s.NumFields() {
					name = ""
					break
				}
				f := s.Field(i)
				name = f.Name()
				t = f.Type()
			}
			if name != "" {
				return name
			}
		}
	}
	switch x := ast.Unparen(outer.X).(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
