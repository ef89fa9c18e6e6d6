// Package detnow implements the `detnow` analyzer: simulation code must
// be bit-for-bit reproducible from its seed, so it may not consult
// wall-clock time, draw from the global math/rand source, or let
// map-iteration order leak into its output.
//
// The paper's evaluation (Fig. 2-4, 8-15) compares recovery timelines
// across runs; internal/sim promises "every run with the same seed
// bit-for-bit reproducible". Any of the three banned constructs breaks
// that promise silently — the figures still render, they just stop being
// comparable. detnow turns the promise into a build failure.
package detnow

import (
	"go/ast"
	"go/token"
	"go/types"

	"alm/internal/lint/analysis"
	"alm/internal/lint/astutil"
)

// Analyzer is the detnow analysis.
var Analyzer = &analysis.Analyzer{
	Name: "detnow",
	Doc: "forbid wall-clock time, the global math/rand source, and " +
		"map-iteration-order-dependent logic in deterministic simulation packages",
	Run: run,
}

// globalRandAllowed lists math/rand identifiers that are legal in
// simulation code: constructors for explicitly seeded sources and the
// types themselves. Everything else exported from math/rand operates on
// the shared global source.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkStmts(pass, fd.Body.List)
		}
	}
	return nil
}

// checkStmts walks one statement list, recursing into every nested
// statement and function literal. Having the enclosing list in hand lets
// the map-range check look *forward* for a blessing sort call.
func checkStmts(pass *analysis.Pass, stmts []ast.Stmt) {
	for i, s := range stmts {
		if rs, ok := s.(*ast.RangeStmt); ok && astutil.IsMapType(pass.TypesInfo, rs.X) {
			checkMapRange(pass, rs, stmts[i+1:])
		}
		checkExprsIn(pass, s)
		// Recurse into nested statement lists.
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				checkNestedBlocks(pass, n)
				return false
			}
			return true
		})
	}
}

// checkNestedBlocks re-enters checkStmts for a block found below the
// current statement.
func checkNestedBlocks(pass *analysis.Pass, b *ast.BlockStmt) {
	checkStmts(pass, b.List)
}

// checkExprsIn flags time.Now and global math/rand use appearing anywhere
// in the statement's expressions (but not inside nested blocks, which the
// caller recurses into separately — double-reporting is harmless but
// noisy, so guard against it).
func checkExprsIn(pass *analysis.Pass, s ast.Stmt) {
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.BlockStmt); ok {
			return false // handled by the statement-list recursion
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "time":
			if obj.Name() == "Now" {
				pass.Reportf(sel.Pos(), "time.Now in deterministic simulation code; use the sim.Engine virtual clock (Engine.Now)")
			}
		case "math/rand", "math/rand/v2":
			fn, ok := obj.(*types.Func)
			if !ok {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // method on *rand.Rand: fine, the source is explicit
			}
			if !globalRandAllowed[obj.Name()] {
				pass.Reportf(sel.Pos(), "%s.%s draws from the process-global random source; use the engine's seeded *rand.Rand", obj.Pkg().Name(), obj.Name())
			}
		}
		return true
	})
}

// ---- map-iteration-order analysis ----

// checkMapRange decides whether a `for ... range m` over a map can affect
// observable order. Order-independent bodies (set/delete of map entries,
// commutative accumulation) pass; collecting keys into a slice passes
// only when a later statement in the same block sorts that slice.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	var appendTargets []types.Object
	if safeStmts(pass, rs.Body.List, &appendTargets) {
		for _, tgt := range appendTargets {
			if !astutil.SortedLater(pass.TypesInfo, tgt, rest) {
				pass.Reportf(rs.Pos(), "map iteration appends to %q without sorting it afterwards; iteration order is not deterministic", tgt.Name())
				return
			}
		}
		return
	}
	pass.Reportf(rs.Pos(), "map iteration with order-dependent body; sort the keys first or restructure (map order differs between runs)")
}

// safeStmts reports whether every statement is order-independent.
// Conditional append targets are accumulated for the caller to verify.
func safeStmts(pass *analysis.Pass, stmts []ast.Stmt, appendTargets *[]types.Object) bool {
	for _, s := range stmts {
		if !safeStmt(pass, s, appendTargets) {
			return false
		}
	}
	return true
}

func safeStmt(pass *analysis.Pass, s ast.Stmt, appendTargets *[]types.Object) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return safeAssign(pass, s, appendTargets)
	case *ast.IncDecStmt:
		return true
	case *ast.DeclStmt:
		return true
	case *ast.BranchStmt:
		// continue is order-neutral; break makes the set of visited
		// entries depend on iteration order.
		return s.Tok == token.CONTINUE
	case *ast.BlockStmt:
		return safeStmts(pass, s.List, appendTargets)
	case *ast.IfStmt:
		if s.Init != nil && !safeStmt(pass, s.Init, appendTargets) {
			return false
		}
		if containsNonBuiltinCall(pass, s.Cond) {
			return false // a call in the condition may observe order
		}
		if !safeStmts(pass, s.Body.List, appendTargets) {
			return false
		}
		if s.Else != nil {
			return safeStmt(pass, s.Else, appendTargets)
		}
		return true
	case *ast.ExprStmt:
		// delete(m, k) is commutative.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return true
				}
			}
		}
		return false
	default:
		return false
	}
}

// safeAssign classifies one assignment inside a map-range body.
func safeAssign(pass *analysis.Pass, a *ast.AssignStmt, appendTargets *[]types.Object) bool {
	// Commutative compound assignments accumulate order-independently.
	switch a.Tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
		return true
	}
	// := inside the loop body always introduces fresh locals (the body is
	// its own scope), so it cannot leak order — provided the RHS has no
	// side effects. Comma-ok map reads (`d, ok := m[k]`) land here.
	if a.Tok == token.DEFINE {
		for _, r := range a.Rhs {
			if containsNonBuiltinCall(pass, r) {
				return false
			}
		}
		return true
	}
	if a.Tok != token.ASSIGN {
		return false
	}
	if len(a.Lhs) != 1 || len(a.Rhs) != 1 {
		return false
	}
	// s = append(s, x): conditionally safe, must be sorted later.
	if lhs, ok := a.Lhs[0].(*ast.Ident); ok {
		if call, ok := a.Rhs[0].(*ast.CallExpr); ok {
			if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" {
				if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); ok && b.Name() == "append" {
					obj := pass.TypesInfo.Uses[lhs]
					if obj == nil {
						obj = pass.TypesInfo.Defs[lhs]
					}
					if obj != nil {
						*appendTargets = append(*appendTargets, obj)
						return true
					}
				}
			}
		}
	}
	// m2[k] = v over a map target is a commutative set — unless the RHS
	// grows the slot (m2[k] = append(m2[k], v)), which bakes iteration
	// order into the slot's element order.
	if idx, ok := a.Lhs[0].(*ast.IndexExpr); ok && astutil.IsMapType(pass.TypesInfo, idx.X) && a.Tok == token.ASSIGN {
		if !containsAppend(pass, a.Rhs[0]) && !astutil.ContainsCall(a.Rhs[0]) {
			return true
		}
	}
	return false
}

// containsNonBuiltinCall is containsCall, except pure builtins (len, cap)
// are harmless in conditions.
func containsNonBuiltinCall(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
				return !found
			}
		}
		found = true
		return false
	})
	return found
}

func containsAppend(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
