// Package ssa is a dependency-free SSA-lite intermediate representation
// for the dedupvet analyzers: a function body becomes a control-flow
// graph of basic blocks, with def-use chains for locals and a
// package-level call graph on top. It deliberately stops short of full
// SSA (no phi nodes, no value numbering) — the flow-aware analyzers
// built on it (lockorder, gorolife) need path
// structure and resolution, not value semantics, and the build
// environment pins dependencies to the standard library.
//
// The CFG models Go's structured control flow: if/else, for, range,
// switch, type switch, select, labeled break/continue, goto, return,
// and the terminating calls panic, os.Exit and runtime.Goexit. A
// synthetic Exit block represents "the function returned (or died)";
// reachability queries against it are how gorolife proves a goroutine
// can terminate and how lockorder bounds a critical section.
package ssa

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Block is one basic block: a maximal run of statements with a single
// entry, plus the successor edges control can take afterwards.
type Block struct {
	// Index is the block's position in Func.Blocks (entry is 0).
	Index int
	// Stmts are the non-control statements executed in order. Control
	// statements (if/for/...) do not appear; they become edges. Return
	// statements DO appear (as the block's last statement) so analyzers
	// can inspect returned values.
	Stmts []ast.Stmt
	// Succs are the blocks control may transfer to.
	Succs []*Block
}

// Func is the control-flow graph of one function or function literal.
type Func struct {
	// Entry is the first block; Exit is the synthetic block every
	// return, panic and fall-off-the-end edge targets. Exit holds no
	// statements and has no successors.
	Entry *Block
	Exit  *Block
	// Blocks lists every block, entry first, exit last.
	Blocks []*Block
}

// builder carries the CFG construction state.
type builder struct {
	info   *types.Info
	fn     *Func
	cur    *Block
	breaks []branchTarget // innermost-last break targets
	conts  []branchTarget // innermost-last continue targets
	labels map[string]*Block
	gotos  []pendingGoto
}

type branchTarget struct {
	label string
	block *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

// Build constructs the CFG of body. info may be nil; it is only used to
// recognize terminating calls (panic/os.Exit/runtime.Goexit) — without
// it those are treated as ordinary statements.
func Build(info *types.Info, body *ast.BlockStmt) *Func {
	f := &Func{}
	b := &builder{info: info, fn: f, labels: make(map[string]*Block)}
	f.Exit = &Block{}
	f.Entry = b.newBlock()
	b.cur = f.Entry
	b.stmtList(body.List)
	// Falling off the end returns.
	b.edge(b.cur, f.Exit)
	for _, g := range b.gotos {
		if tgt, ok := b.labels[g.label]; ok {
			b.edge(g.from, tgt)
		} else {
			// Unresolvable goto (label in unreached code): be
			// conservative, let it exit.
			b.edge(g.from, f.Exit)
		}
	}
	f.Exit.Index = len(f.Blocks)
	f.Blocks = append(f.Blocks, f.Exit)
	return f
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.fn.Blocks)}
	b.fn.Blocks = append(b.fn.Blocks, blk)
	return blk
}

// edge adds from→to, skipping nil and duplicate edges.
func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt translates one statement. label is the label attached to it (for
// labeled loops/switches), or "".
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// Give the labeled statement its own block so gotos can land on
		// it.
		blk := b.newBlock()
		b.edge(b.cur, blk)
		b.cur = blk
		b.labels[s.Label.Name] = blk
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		cond := b.cur
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body, "")
		thenEnd := b.cur
		after := b.newBlock()
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else, "")
			b.edge(b.cur, after)
		} else {
			b.edge(cond, after)
		}
		b.edge(thenEnd, after)
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		after := b.newBlock()
		if s.Cond != nil {
			// Conditional loop: the condition may fail on entry.
			b.edge(head, after)
		}
		body := b.newBlock()
		b.edge(head, body)
		post := head
		if s.Post != nil {
			post = b.newBlock()
			b.cur = post
			b.append(s.Post)
			b.edge(post, head)
		}
		b.pushLoop(label, after, post)
		b.cur = body
		b.stmt(s.Body, "")
		b.edge(b.cur, post)
		b.popLoop()
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		after := b.newBlock()
		// A range always has an exhaustion edge (for channels: close).
		b.edge(head, after)
		body := b.newBlock()
		b.edge(head, body)
		b.pushLoop(label, after, head)
		b.cur = body
		b.stmt(s.Body, "")
		b.edge(b.cur, head)
		b.popLoop()
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var bodyList []ast.Stmt
		if sw, ok := s.(*ast.SwitchStmt); ok {
			init = sw.Init
			if sw.Tag != nil {
				// keep tag evaluation visible to analyzers
				b.append(&ast.ExprStmt{X: sw.Tag})
			}
			bodyList = sw.Body.List
		} else {
			ts := s.(*ast.TypeSwitchStmt)
			init = ts.Init
			b.append(ts.Assign)
			bodyList = ts.Body.List
		}
		if init != nil {
			b.append(init)
		}
		head := b.cur
		after := b.newBlock()
		b.pushSwitch(label, after)
		hasDefault := false
		// Build case bodies first so fallthrough can chain.
		caseBlocks := make([]*Block, len(bodyList))
		for i := range bodyList {
			caseBlocks[i] = b.newBlock()
		}
		for i, cs := range bodyList {
			cc := cs.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			b.edge(head, caseBlocks[i])
			b.cur = caseBlocks[i]
			fell := false
			for _, st := range cc.Body {
				if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					if i+1 < len(caseBlocks) {
						b.edge(b.cur, caseBlocks[i+1])
					}
					fell = true
					b.cur = b.newBlock() // unreachable after fallthrough
					continue
				}
				b.stmt(st, "")
			}
			if !fell {
				b.edge(b.cur, after)
			} else {
				b.edge(b.cur, after)
			}
		}
		if !hasDefault {
			b.edge(head, after)
		}
		b.popSwitch()
		b.cur = after

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.pushSwitch(label, after)
		for _, cs := range s.Body.List {
			cc := cs.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.append(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, after)
		}
		// A select with no cases blocks forever: no edge out of head.
		b.popSwitch()
		b.cur = after

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			b.edge(b.cur, b.findTarget(b.breaks, s.Label))
		case token.CONTINUE:
			b.edge(b.cur, b.findTarget(b.conts, s.Label))
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
		}
		b.cur = b.newBlock() // unreachable continuation

	case *ast.ReturnStmt:
		b.append(s)
		b.edge(b.cur, b.fn.Exit)
		b.cur = b.newBlock()

	default:
		b.append(s)
		if b.terminates(s) {
			b.edge(b.cur, b.fn.Exit)
			b.cur = b.newBlock()
		}
	}
}

func (b *builder) append(s ast.Stmt) {
	b.cur.Stmts = append(b.cur.Stmts, s)
}

func (b *builder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, branchTarget{label, brk})
	b.conts = append(b.conts, branchTarget{label, cont})
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
}

func (b *builder) pushSwitch(label string, brk *Block) {
	b.breaks = append(b.breaks, branchTarget{label, brk})
}

func (b *builder) popSwitch() {
	b.breaks = b.breaks[:len(b.breaks)-1]
}

// findTarget resolves a break/continue target, innermost first; a label
// selects the matching enclosing construct.
func (b *builder) findTarget(stack []branchTarget, label *ast.Ident) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == nil || stack[i].label == label.Name {
			return stack[i].block
		}
	}
	return b.fn.Exit // malformed code; stay conservative
}

// terminates reports whether s unconditionally ends the function:
// panic, os.Exit, runtime.Goexit, (*testing.T).Fatal — from the
// goroutine's point of view, all of these are exits, not leaks.
func (b *builder) terminates(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b.info != nil {
			if bi, ok := b.info.Uses[fun].(*types.Builtin); ok && bi.Name() == "panic" {
				return true
			}
		} else if fun.Name == "panic" {
			return true
		}
	case *ast.SelectorExpr:
		if b.info == nil {
			return false
		}
		fn, _ := b.info.Uses[fun.Sel].(*types.Func)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() + "." + fn.Name() {
		case "os.Exit", "runtime.Goexit":
			return true
		}
	}
	return false
}

// ReachableFromEntry returns the blocks reachable from Entry.
func (f *Func) ReachableFromEntry() map[*Block]bool {
	seen := make(map[*Block]bool)
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(f.Entry)
	return seen
}

// CanReachExit returns the blocks from which Exit is reachable
// (computed over reversed edges).
func (f *Func) CanReachExit() map[*Block]bool {
	preds := make(map[*Block][]*Block)
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b)
		}
	}
	seen := make(map[*Block]bool)
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, p := range preds[b] {
			walk(p)
		}
	}
	walk(f.Exit)
	return seen
}
