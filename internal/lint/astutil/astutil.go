// Package astutil holds the small syntax and type queries that more than
// one almvet analyzer needs, so each has a single definition.
package astutil

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// IsHotpath reports whether a doc comment carries the //alm:hotpath
// marker. The directive form (no space after //) is required, matching
// go:build and friends; a prose mention of the word does not arm the
// analyzers.
func IsHotpath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//alm:hotpath") {
			return true
		}
	}
	return false
}

// ExprSource renders e back to source text.
func ExprSource(fset *token.FileSet, e ast.Expr) (string, bool) {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "", false
	}
	return buf.String(), true
}

// ContainsCall reports whether e contains any call expression.
func ContainsCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

// CalleeObject resolves a call's static callee, or nil for indirect calls
// and builtins.
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}

// Mentions reports whether e uses obj.
func Mentions(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// SortedLater reports whether a sort/slices call mentioning target
// appears in the statements following a range loop.
func SortedLater(info *types.Info, target types.Object, rest []ast.Stmt) bool {
	for _, s := range rest {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if p := obj.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if Mentions(info, arg, target) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// MapType returns the map type of e, looking through one pointer.
func MapType(info *types.Info, e ast.Expr) (*types.Map, bool) {
	t := info.Types[e].Type
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	m, ok := t.Underlying().(*types.Map)
	return m, ok
}

// IsMapType reports whether e is a map or a pointer to one.
func IsMapType(info *types.Info, e ast.Expr) bool {
	_, ok := MapType(info, e)
	return ok
}
