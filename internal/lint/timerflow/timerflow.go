// Package timerflow implements the `timerflow` analyzer: path-sensitive
// checking of the sim.Timer protocol over the internal/lint/cfg control
// flow graph and the internal/lint/dataflow worklist engine.
//
// The protocol (PR 5, DESIGN.md §10): a logical timer that is re-armed
// uses Timer.Reschedule, which reuses the allocation and — critically —
// is behaviourally identical to Stop+Schedule, so the two forms cannot
// drift apart in event ordering. Hand-audits enforced this until now;
// timerflow machine-checks two violation classes:
//
//   - Stop+Schedule re-arm: a timer variable (local or a field reached
//     through one selector, `r.watch`) is Stopped and then overwritten
//     with a fresh Engine.Schedule/At result on every path in between.
//     The suggested fix rewrites `x = e.Schedule(d, fn)` to
//     `x.Reschedule(d, fn)`.
//
//   - Leak on early return: a purely-local timer that the function
//     demonstrably intends to clean up (some exit path Stops it) is
//     still armed on another exit path. `defer t.Stop()` covers every
//     path and silences the check, as does letting the timer fire on
//     all paths (fire-and-forget watchdogs are not flagged).
//
// Timer state is a per-variable may-set lattice {active, stopped,
// unknown}; facts flow forward through the CFG, join at merges by
// union, and are inspected at each return site.
package timerflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"alm/internal/lint/analysis"
	"alm/internal/lint/astutil"
	"alm/internal/lint/cfg"
	"alm/internal/lint/dataflow"
)

// Analyzer is the timerflow analysis.
var Analyzer = &analysis.Analyzer{
	Name: "timerflow",
	Doc: "path-sensitive sim.Timer protocol checks: re-arm with Reschedule instead of " +
		"Stop+Schedule, and stop timers on every early-return path you stop on any",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
			// Function literals are separate functions with their own
			// timer discipline (a periodic handler is usually a literal).
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkFunc(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// ---- timer state lattice ----

type state uint8

const (
	sActive  state = 1 << iota // armed by Schedule/At/Reschedule
	sStopped                   // Stop() observed
	sUnknown                   // untracked value flowed in
)

// key identifies one tracked timer: a local variable (field == nil) or a
// one-selector field path base.field.
type key struct {
	base  types.Object
	field types.Object
}

// fact maps tracked timers to their may-state. Facts are immutable;
// transfer copies on write.
type fact map[key]state

func (f fact) clone() fact {
	out := make(fact, len(f)+1)
	for k, v := range f {
		out[k] = v
	}
	return out
}

// problem is the dataflow.Problem for one function body.
type problem struct {
	pass *analysis.Pass
	// rearm collects Stop+Schedule findings during transfer, keyed by
	// the assignment so re-transfers (worklist revisits) overwrite
	// rather than duplicate. The final state decides the verdict.
	rearm map[*ast.AssignStmt]rearmFinding
}

type rearmFinding struct {
	call     *ast.CallExpr
	lhs      ast.Expr
	mustStop bool
}

func (p *problem) Entry() dataflow.Fact { return fact{} }

func (p *problem) Join(a, b dataflow.Fact) dataflow.Fact {
	fa, fb := a.(fact), b.(fact)
	out := make(fact, len(fa)+len(fb))
	for k, v := range fa {
		out[k] = v
	}
	for k, v := range fb {
		// A key absent on one edge has unknown state there.
		if _, ok := out[k]; !ok {
			out[k] = sUnknown
		}
		out[k] |= v
	}
	for k := range fa {
		if _, ok := fb[k]; !ok {
			out[k] |= sUnknown
		}
	}
	return out
}

func (p *problem) Equal(a, b dataflow.Fact) bool {
	fa, fb := a.(fact), b.(fact)
	if len(fa) != len(fb) {
		return false
	}
	for k, v := range fa {
		if fb[k] != v {
			return false
		}
	}
	return true
}

func (p *problem) Transfer(n ast.Node, in dataflow.Fact) dataflow.Fact {
	f := in.(fact)
	var events []event
	p.walk(n, func(ev event) { events = append(events, ev) })
	if len(events) == 0 {
		return f
	}
	out := f.clone()
	for _, ev := range events {
		switch ev.kind {
		case evStop:
			out[ev.key] = sStopped
		case evReschedule:
			out[ev.key] = sActive
		case evSchedule:
			// x = e.Schedule(...) — consult the state reaching this
			// assignment for the verdict. The block may be transferred
			// several times while the worklist converges; the last
			// transfer sees the fixed-point state, so overwrite or
			// delete rather than accumulate.
			cur, tracked := out[ev.key]
			if ev.assign != nil {
				if tracked && cur&sStopped != 0 && cur&sActive == 0 {
					p.rearm[ev.assign] = rearmFinding{
						call:     ev.call,
						lhs:      ev.lhs,
						mustStop: cur == sStopped,
					}
				} else {
					delete(p.rearm, ev.assign)
				}
			}
			out[ev.key] = sActive
		case evInvalidate:
			if ev.key.field == anyField {
				for k := range out {
					if k.base == ev.key.base && k.field != nil {
						out[k] = sUnknown
					}
				}
				continue
			}
			out[ev.key] = sUnknown
		}
	}
	return out
}

// ---- event extraction ----

type eventKind int

const (
	evStop eventKind = iota
	evReschedule
	evSchedule
	evInvalidate
)

type event struct {
	kind   eventKind
	key    key
	assign *ast.AssignStmt
	call   *ast.CallExpr
	lhs    ast.Expr
}

// walk extracts timer-protocol events from one CFG node in evaluation
// order. Function literals are skipped (their bodies run at another
// time); timers they capture are invalidated instead.
func (p *problem) walk(n ast.Node, emit func(event)) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.RangeStmt:
			// A RangeStmt appearing as a CFG node models only the operand
			// evaluation and per-iteration assignment; its body lives in
			// other blocks.
			p.walk(m.X, emit)
			return false
		case *ast.DeferStmt:
			// Deferred calls run at function exit, not here; the leak
			// check accounts for them via Graph.Defers.
			return false
		case *ast.FuncLit:
			// Captured timer variables may be mutated whenever the
			// closure runs; stop tracking them.
			ast.Inspect(m.Body, func(inner ast.Node) bool {
				if sel, ok := inner.(*ast.SelectorExpr); ok {
					if k, ok := p.keyOf(sel); ok {
						emit(event{kind: evInvalidate, key: k})
					}
				}
				if id, ok := inner.(*ast.Ident); ok {
					if k, ok := p.keyOfIdent(id); ok {
						emit(event{kind: evInvalidate, key: k})
					}
				}
				return true
			})
			return false
		case *ast.CallExpr:
			if recv, name, ok := p.timerMethod(m); ok {
				if k, ok := p.keyOfExpr(recv); ok {
					switch name {
					case "Stop":
						emit(event{kind: evStop, key: k})
					case "Reschedule":
						emit(event{kind: evReschedule, key: k})
					}
				}
				return true
			}
			// A call receiving a tracked base (r.cleanup(), f(r)) may
			// re-arm that base's timer fields behind our back.
			p.invalidateBases(m, emit)
			return true
		case *ast.AssignStmt:
			p.walkAssign(m, emit)
			return false
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				if k, ok := p.keyOfExpr(m.X); ok {
					emit(event{kind: evInvalidate, key: k})
				}
			}
		}
		return true
	})
}

func (p *problem) walkAssign(a *ast.AssignStmt, emit func(event)) {
	// RHS effects first (evaluation order).
	for _, r := range a.Rhs {
		p.walk(r, emit)
	}
	if len(a.Lhs) != len(a.Rhs) {
		// Multi-value assignment from one call: invalidate timer lhs.
		for _, l := range a.Lhs {
			if k, ok := p.keyOfExpr(l); ok {
				emit(event{kind: evInvalidate, key: k})
			}
		}
		return
	}
	for i, l := range a.Lhs {
		k, ok := p.keyOfExpr(l)
		if !ok {
			continue
		}
		if call, ok := a.Rhs[i].(*ast.CallExpr); ok && p.isScheduleCall(call) {
			var assign *ast.AssignStmt
			if a.Tok == token.ASSIGN {
				assign = a // only plain assignment can be a re-arm
			}
			emit(event{kind: evSchedule, key: k, assign: assign, call: call, lhs: l})
			continue
		}
		if src, ok := p.keyOfExpr(a.Rhs[i]); ok {
			// x = y: copying a tracked timer aliases it; stop trusting
			// either (aliased Stops are invisible to the other name).
			emit(event{kind: evInvalidate, key: src})
			emit(event{kind: evInvalidate, key: k})
			continue
		}
		emit(event{kind: evInvalidate, key: k})
	}
}

// invalidateBases drops field-path facts whose base appears as a call
// receiver or argument.
func (p *problem) invalidateBases(call *ast.CallExpr, emit func(event)) {
	bases := map[types.Object]bool{}
	record := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := p.pass.TypesInfo.Uses[id]; obj != nil {
				bases[obj] = true
			}
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		record(sel.X)
	}
	for _, arg := range call.Args {
		record(arg)
	}
	if len(bases) == 0 {
		return
	}
	// Emit invalidations for every tracked field key with that base; the
	// transfer function only applies them to keys already in the fact.
	for obj := range bases {
		emit(event{kind: evInvalidate, key: key{base: obj, field: anyField}})
	}
}

// anyField is a sentinel: invalidate every field of the base.
var anyField = types.Object(types.NewLabel(token.NoPos, nil, "<any>"))

// timerMethod matches a call to (*sim.Timer).Stop/Reschedule/Active and
// returns the receiver expression.
func (p *problem) timerMethod(call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn, isFn := p.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return nil, "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil || !isTimerPtr(sig.Recv().Type()) {
		return nil, "", false
	}
	return sel.X, fn.Name(), true
}

// isScheduleCall matches sim Engine.Schedule / Engine.At (any method in
// the sim package returning *sim.Timer).
func (p *problem) isScheduleCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	return isTimerPtr(sig.Results().At(0).Type())
}

// keyOfExpr maps an expression to a tracked key: a plain local ident or
// a one-level selector off a local ident.
func (p *problem) keyOfExpr(e ast.Expr) (key, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return p.keyOfIdent(e)
	case *ast.SelectorExpr:
		return p.keyOf(e)
	}
	return key{}, false
}

func (p *problem) keyOfIdent(id *ast.Ident) (key, bool) {
	obj := p.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = p.pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || !isTimerPtr(v.Type()) {
		return key{}, false
	}
	return key{base: v}, true
}

func (p *problem) keyOf(sel *ast.SelectorExpr) (key, bool) {
	field, ok := p.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !field.IsField() || !isTimerPtr(field.Type()) {
		return key{}, false
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return key{}, false
	}
	bobj, ok := p.pass.TypesInfo.Uses[base].(*types.Var)
	if !ok || bobj.IsField() {
		return key{}, false
	}
	return key{base: bobj, field: field}, true
}

// isTimerPtr reports whether t is *sim.Timer.
func isTimerPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Timer" || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == "alm/internal/sim" || obj.Pkg().Name() == "sim"
}

// ---- per-function check ----

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	if !mentionsTimer(pass, body) {
		return
	}
	g := cfg.New(body)
	p := &problem{pass: pass, rearm: map[*ast.AssignStmt]rearmFinding{}}
	res := dataflow.Forward(g, p)

	reportRearms(pass, p)
	checkLeaks(pass, body, g, p, res)
}

// mentionsTimer cheaply gates the dataflow on functions that touch
// *sim.Timer values at all.
func mentionsTimer(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok && isTimerPtr(v.Type()) {
			found = true
		}
		return !found
	})
	return found
}

// reportRearms turns collected Stop+Schedule transfers into diagnostics,
// in deterministic source order.
func reportRearms(pass *analysis.Pass, p *problem) {
	assigns := make([]*ast.AssignStmt, 0, len(p.rearm))
	for a := range p.rearm {
		assigns = append(assigns, a)
	}
	sortByPos(assigns)
	for _, a := range assigns {
		f := p.rearm[a]
		d := analysis.Diagnostic{
			Pos: f.call.Pos(),
			Message: "timer re-armed with Stop+Schedule; use Reschedule — identical event " +
				"order, no allocation (DESIGN.md §10)",
		}
		if f.mustStop {
			if lhsSrc, ok := astutil.ExprSource(pass.Fset, f.lhs); ok {
				d.SuggestedFixes = append(d.SuggestedFixes, analysis.SuggestedFix{
					Message: "replace with " + lhsSrc + ".Reschedule(...)",
					TextEdits: []analysis.TextEdit{{
						Pos:     a.Pos(),
						End:     f.call.Fun.End(),
						NewText: []byte(lhsSrc + ".Reschedule"),
					}},
				})
			}
		}
		pass.Report(d)
	}
}

func sortByPos(assigns []*ast.AssignStmt) {
	for i := 1; i < len(assigns); i++ {
		for j := i; j > 0 && assigns[j].Pos() < assigns[j-1].Pos(); j-- {
			assigns[j], assigns[j-1] = assigns[j-1], assigns[j]
		}
	}
}

// ---- leak detection ----

// checkLeaks flags purely-local timers that are stopped on one exit path
// but may still be armed on another.
func checkLeaks(pass *analysis.Pass, body *ast.BlockStmt, g *cfg.Graph, p *problem, res *dataflow.Result) {
	locals := localTimerCandidates(pass, body, g)
	if len(locals) == 0 {
		return
	}

	// Exit snapshots: the fact before each return statement, plus the
	// out-fact of blocks that fall off the end of the body.
	type exit struct {
		pos token.Pos
		f   fact
	}
	var exits []exit
	for _, blk := range g.Blocks {
		in, ok := res.In[blk]
		if !ok {
			continue
		}
		dataflow.NodeFacts(p, blk, in, func(n ast.Node, before dataflow.Fact) {
			if ret, ok := n.(*ast.ReturnStmt); ok {
				exits = append(exits, exit{ret.Pos(), before.(fact)})
			}
		})
		if blk != g.Exit && !endsExplicitly(blk) && hasSucc(blk, g.Exit) {
			if out, ok := res.Out[blk]; ok {
				exits = append(exits, exit{body.Rbrace, out.(fact)})
			}
		}
	}

	for _, obj := range locals {
		k := key{base: obj}
		stoppedSomewhere := false
		for _, e := range exits {
			if s, ok := e.f[k]; ok && s == sStopped {
				stoppedSomewhere = true
				break
			}
		}
		if !stoppedSomewhere {
			continue // fire-and-forget: never flagged
		}
		for _, e := range exits {
			if s, ok := e.f[k]; ok && s&sActive != 0 {
				pass.Reportf(e.pos, "timer %s may still be armed on this return path but is stopped on another; Stop it here or use `defer %s.Stop()`",
					obj.Name(), obj.Name())
			}
		}
	}
}

// localTimerCandidates returns local *sim.Timer variables that are armed
// in this function, never escape it, and are not covered by a deferred
// Stop.
func localTimerCandidates(pass *analysis.Pass, body *ast.BlockStmt, g *cfg.Graph) []types.Object {
	// Deferred stops (direct or inside a deferred closure) cover all
	// exits.
	deferred := map[types.Object]bool{}
	for _, d := range g.Defers {
		ast.Inspect(d, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && sel.Sel.Name == "Stop" {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					deferred[obj] = true
				}
			}
			return true
		})
	}

	type usage struct {
		armed   bool
		escaped bool
	}
	uses := map[types.Object]*usage{}
	get := func(obj types.Object) *usage {
		u, ok := uses[obj]
		if !ok {
			u = &usage{}
			uses[obj] = u
		}
		return u
	}

	var order []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, l := range n.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[id].(*types.Var)
				if !ok || !isTimerPtr(obj.Type()) {
					continue
				}
				if _, seen := uses[obj]; !seen {
					order = append(order, obj)
				}
				if call, ok := n.Rhs[i].(*ast.CallExpr); ok {
					p := &problem{pass: pass}
					if p.isScheduleCall(call) {
						get(obj).armed = true
						continue
					}
				}
				get(obj).escaped = true // aliased from elsewhere: not ours
			}
		case *ast.FuncLit:
			// Capture escapes (unless this literal is a deferred Stop
			// handled above — still fine to mark escaped then, the defer
			// check runs first).
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if obj, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && isTimerPtr(obj.Type()) && !obj.IsField() {
						get(obj).escaped = true
					}
				}
				return true
			})
			return false
		case *ast.Ident:
			// Classified below via parent inspection; nothing here.
		}
		return true
	})

	// Any use that is not a Stop/Reschedule/Active receiver, not an LHS,
	// and not the defining RHS marks the timer escaped.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if id, ok := arg.(*ast.Ident); ok {
					if obj, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && isTimerPtr(obj.Type()) {
						get(obj).escaped = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				ast.Inspect(r, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if obj, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && isTimerPtr(obj.Type()) {
							get(obj).escaped = true
						}
					}
					return true
				})
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := n.X.(*ast.Ident); ok {
					if obj, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && isTimerPtr(obj.Type()) {
						get(obj).escaped = true
					}
				}
			}
		case *ast.AssignStmt:
			// Storing a tracked timer somewhere (field, map, slice, other
			// var) escapes it.
			for _, r := range n.Rhs {
				if id, ok := r.(*ast.Ident); ok {
					if obj, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && isTimerPtr(obj.Type()) {
						get(obj).escaped = true
					}
				}
			}
		case *ast.CompositeLit:
			ast.Inspect(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && isTimerPtr(obj.Type()) {
						get(obj).escaped = true
					}
				}
				return true
			})
			return false
		}
		return true
	})

	var out []types.Object
	for _, obj := range order {
		u := uses[obj]
		if u.armed && !u.escaped && !deferred[obj] {
			out = append(out, obj)
		}
	}
	return out
}

func endsExplicitly(blk *cfg.Block) bool {
	if len(blk.Nodes) == 0 {
		return false
	}
	switch last := blk.Nodes[len(blk.Nodes)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func hasSucc(blk, target *cfg.Block) bool {
	for _, s := range blk.Succs {
		if s == target {
			return true
		}
	}
	return false
}
