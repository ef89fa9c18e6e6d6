// Package maporder implements the `maporder` analyzer: a flow-sensitive
// check that a `range` over a map cannot leak Go's randomized iteration
// order into anything observable. It is the machine-checked form of the
// fig14 bug class (PR 3): float summation in map order changed the last
// bits of meanTaskRecovery between runs, which no syntax-level lint saw
// because `sum += x` looks commutative.
//
// A map-range loop is flagged when its body's effects — on any path that
// is reachable inside the loop-body CFG — include:
//
//   - a call that (transitively, within the package) emits to
//     internal/trace or internal/metrics, or writes to an output sink
//     (fmt.Fprint family, Write/WriteString/WriteByte/WriteRune methods);
//   - float accumulation into a variable declared outside the loop
//     (addition is not commutative in floating point);
//   - an append to a slice declared outside the loop that is not sorted
//     afterwards in the enclosing block;
//   - a call to a function marked //alm:hotpath (hot paths feed the
//     benchmark output and the trace).
//
// Loops whose order-insensitivity is a human judgement carry the escape
// hatch, which must name its reason:
//
//	//alm:unordered(counters are commutative integer adds)
//	for host, n := range counts { total += n }
//
// The annotation goes on the `for` line or the line directly above it.
// An empty reason is itself a finding — the justification is the point.
//
// Flagged loops whose key type is ordered get a suggested fix that
// rewrites to sorted-key iteration:
//
//	for _, k := range slices.Sorted(maps.Keys(m)) {
//		v := m[k]
//		...
//	}
//
// which `almvet -fix` applies mechanically.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"alm/internal/lint/analysis"
	"alm/internal/lint/astutil"
	"alm/internal/lint/cfg"
)

// Analyzer is the maporder analysis.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag map-range loops whose body's effects reach trace/metrics emission, " +
		"float accumulation, unsorted slice appends, or //alm:hotpath functions " +
		"(map iteration order would leak into observable output)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	info := collectPackageInfo(pass)
	for _, file := range pass.Files {
		ann := collectUnordered(pass, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkStmts(pass, info, ann, fd.Body.List)
		}
	}
	return nil
}

// ---- escape-hatch annotations ----

// unorderedAnn is one parsed //alm:unordered annotation.
type unorderedAnn struct {
	reason string
	pos    token.Pos
}

// collectUnordered indexes //alm:unordered(reason) annotations by the
// line they bless: the annotation's own line and, for comment-above
// placement, the line below it.
func collectUnordered(pass *analysis.Pass, file *ast.File) map[int]*unorderedAnn {
	idx := make(map[int]*unorderedAnn)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//alm:unordered")
			if !ok {
				continue
			}
			ann := &unorderedAnn{pos: c.Pos()}
			if open := strings.Index(rest, "("); open >= 0 {
				if close := strings.LastIndex(rest, ")"); close > open {
					ann.reason = strings.TrimSpace(rest[open+1 : close])
				}
			}
			line := pass.Fset.Position(c.Pos()).Line
			idx[line] = ann
			idx[line+1] = ann
		}
	}
	return idx
}

// ---- statement traversal ----

// walkStmts visits every statement list in source order, keeping the
// trailing statements of each list in hand so the append check can look
// forward for a blessing sort (same contract as detnow's).
func walkStmts(pass *analysis.Pass, info *pkgInfo, ann map[int]*unorderedAnn, stmts []ast.Stmt) {
	for i, s := range stmts {
		if rs, ok := s.(*ast.RangeStmt); ok && astutil.IsMapType(pass.TypesInfo, rs.X) {
			checkMapRange(pass, info, ann, rs, stmts[i+1:])
		}
		// Recurse into nested statement lists and function literals.
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				walkStmts(pass, info, ann, n.List)
				return false
			case *ast.FuncLit:
				walkStmts(pass, info, ann, n.Body.List)
				return false
			}
			return true
		})
	}
}

// checkMapRange classifies one map-range loop.
func checkMapRange(pass *analysis.Pass, info *pkgInfo, ann map[int]*unorderedAnn, rs *ast.RangeStmt, rest []ast.Stmt) {
	if rs.Key == nil && rs.Value == nil {
		// `for range m` has indistinguishable iterations: no order to leak.
		return
	}
	line := pass.Fset.Position(rs.Pos()).Line
	if a, ok := ann[line]; ok {
		if a.reason == "" {
			pass.Reportf(rs.Pos(), "//alm:unordered annotation is missing its (reason); justify why iteration order cannot leak")
		}
		return
	}

	sink := findSink(pass, info, rs, rest)
	if sink == "" {
		return
	}
	d := analysis.Diagnostic{
		Pos: rs.Pos(),
		Message: "map iteration order reaches " + sink +
			"; iterate keys in sorted order or annotate //alm:unordered(reason)",
	}
	if fix, ok := sortedKeysFix(pass, rs); ok {
		d.SuggestedFixes = append(d.SuggestedFixes, fix)
	}
	pass.Report(d)
}

// findSink scans the loop body's reachable statements for order-sensitive
// effects and returns a description of the first one, or "".
func findSink(pass *analysis.Pass, info *pkgInfo, rs *ast.RangeStmt, rest []ast.Stmt) string {
	g := cfg.New(rs.Body)
	reach := g.Reachable()
	var appendTargets []types.Object
	sink := ""
	for _, blk := range g.Blocks {
		if sink != "" {
			break
		}
		if !reach[blk] {
			continue
		}
		for _, node := range blk.Nodes {
			if sink != "" {
				break
			}
			ast.Inspect(node, func(n ast.Node) bool {
				if sink != "" {
					return false
				}
				switch n := n.(type) {
				case *ast.CallExpr:
					if s := callSink(pass, info, n); s != "" {
						sink = s
						return false
					}
				case *ast.AssignStmt:
					if s := assignSink(pass, rs, n, &appendTargets); s != "" {
						sink = s
						return false
					}
				}
				return true
			})
		}
	}
	if sink != "" {
		return sink
	}
	for _, tgt := range appendTargets {
		if !astutil.SortedLater(pass.TypesInfo, tgt, rest) {
			return "an append to " + tgt.Name() + " that is not sorted afterwards"
		}
	}
	return ""
}

// callSink classifies one call inside the loop body.
func callSink(pass *analysis.Pass, info *pkgInfo, call *ast.CallExpr) string {
	obj := astutil.CalleeObject(pass.TypesInfo, call)
	if obj == nil {
		return ""
	}
	if pkg := obj.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "alm/internal/trace":
			return "trace emission (" + obj.Name() + ")"
		case "alm/internal/metrics":
			return "metrics emission (" + obj.Name() + ")"
		case "fmt":
			switch obj.Name() {
			case "Fprintf", "Fprint", "Fprintln", "Printf", "Print", "Println":
				return "output via fmt." + obj.Name()
			}
		}
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return "a " + fn.Name() + " call (ordered output sink)"
		}
	}
	if info.hot[obj] {
		return "//alm:hotpath function " + obj.Name()
	}
	if info.emits[obj] {
		return "trace/metrics emission via " + obj.Name()
	}
	return ""
}

// assignSink flags float accumulation into variables declared outside the
// loop, and records outside-declared append targets for the
// sorted-afterwards check.
func assignSink(pass *analysis.Pass, rs *ast.RangeStmt, a *ast.AssignStmt, appendTargets *[]types.Object) string {
	if len(a.Lhs) != 1 || len(a.Rhs) != 1 {
		return ""
	}
	lhs, ok := a.Lhs[0].(*ast.Ident)
	if !ok {
		return ""
	}
	obj := pass.TypesInfo.Uses[lhs]
	if obj == nil || !declaredOutside(obj, rs) {
		return ""
	}
	switch a.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if isFloat(obj.Type()) {
			return "float accumulation into " + lhs.Name + " (float addition is order-sensitive)"
		}
	case token.ASSIGN:
		// x = x + dv float, or x = append(x, ...).
		if bin, ok := a.Rhs[0].(*ast.BinaryExpr); ok && isFloat(obj.Type()) {
			if astutil.Mentions(pass.TypesInfo, bin, obj) {
				return "float accumulation into " + lhs.Name + " (float addition is order-sensitive)"
			}
		}
		if call, ok := a.Rhs[0].(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					*appendTargets = append(*appendTargets, obj)
				}
			}
		}
	}
	return ""
}

// declaredOutside reports whether obj's declaration lies outside the
// range statement (accumulators and collectors, not loop-local temps).
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

// ---- package-level emit/hotpath propagation ----

// pkgInfo caches which package functions are //alm:hotpath-marked and
// which (transitively) emit to trace/metrics or an output sink.
type pkgInfo struct {
	hot   map[types.Object]bool
	emits map[types.Object]bool
}

func collectPackageInfo(pass *analysis.Pass) *pkgInfo {
	info := &pkgInfo{hot: map[types.Object]bool{}, emits: map[types.Object]bool{}}

	// Declarations in deterministic (file, source) order.
	type fn struct {
		obj  types.Object
		decl *ast.FuncDecl
	}
	var fns []fn
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			fns = append(fns, fn{obj, fd})
			if astutil.IsHotpath(fd.Doc) {
				info.hot[obj] = true
			}
			if emitsDirectly(pass, fd.Body) {
				info.emits[obj] = true
			}
		}
	}

	// Same-package call graph: caller -> callees with bodies here.
	callees := make(map[types.Object][]types.Object, len(fns))
	local := make(map[types.Object]bool, len(fns))
	for _, f := range fns {
		local[f.obj] = true
	}
	for _, f := range fns {
		seen := map[types.Object]bool{}
		ast.Inspect(f.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if obj := astutil.CalleeObject(pass.TypesInfo, call); obj != nil && local[obj] && !seen[obj] {
				seen[obj] = true
				callees[f.obj] = append(callees[f.obj], obj)
			}
			return true
		})
	}

	// Propagate "emits" from callee to caller to a fixed point.
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			if info.emits[f.obj] {
				continue
			}
			for _, c := range callees[f.obj] {
				if info.emits[c] {
					info.emits[f.obj] = true
					changed = true
					break
				}
			}
		}
	}
	return info
}

// emitsDirectly reports whether the body calls straight into an emission
// sink (trace, metrics, fmt print family, Write methods).
func emitsDirectly(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := astutil.CalleeObject(pass.TypesInfo, call)
		if obj == nil {
			return true
		}
		if pkg := obj.Pkg(); pkg != nil {
			switch pkg.Path() {
			case "alm/internal/trace", "alm/internal/metrics":
				found = true
				return false
			case "fmt":
				switch obj.Name() {
				case "Fprintf", "Fprint", "Fprintln", "Printf", "Print", "Println":
					found = true
					return false
				}
			}
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			switch fn.Name() {
			case "Write", "WriteString", "WriteByte", "WriteRune":
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// ---- suggested fix: sorted-key iteration ----

// sortedKeysFix rewrites `for k, v := range m` to
// `for _, k := range slices.Sorted(maps.Keys(m))` with `v := m[k]`
// injected at the top of the body. It applies only when the loop defines
// its variables (`:=`), the key type is ordered, and the map operand is a
// call-free expression (it is evaluated once more inside the body).
func sortedKeysFix(pass *analysis.Pass, rs *ast.RangeStmt) (analysis.SuggestedFix, bool) {
	none := analysis.SuggestedFix{}
	if rs.Tok != token.DEFINE {
		return none, false
	}
	mt, ok := astutil.MapType(pass.TypesInfo, rs.X)
	if !ok || !isOrdered(mt.Key()) {
		return none, false
	}
	if astutil.ContainsCall(rs.X) {
		return none, false
	}
	mSrc, ok := astutil.ExprSource(pass.Fset, rs.X)
	if !ok {
		return none, false
	}

	keyName, valName := "", ""
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		keyName = id.Name
	}
	if rs.Value != nil {
		if id, ok := rs.Value.(*ast.Ident); ok && id.Name != "_" {
			valName = id.Name
		}
	}
	if keyName == "" && valName == "" {
		return none, false
	}
	if keyName == "" {
		// `for _, v := range m`: a key variable is needed to index the map.
		keyName = freshName(pass, rs, "k")
	}

	header := "_, " + keyName + " := range slices.Sorted(maps.Keys(" + mSrc + "))"
	var edits []analysis.TextEdit
	edits = append(edits, analysis.TextEdit{
		Pos:     rs.Key.Pos(),
		End:     rs.X.End(),
		NewText: []byte(header),
	})
	if valName != "" {
		edits = append(edits, analysis.TextEdit{
			Pos:     rs.Body.Lbrace + 1,
			End:     rs.Body.Lbrace + 1,
			NewText: []byte("\n" + valName + " := " + mSrc + "[" + keyName + "]"),
		})
	}
	edits = append(edits, importEdits(pass, rs.Pos(), "maps", "slices")...)
	return analysis.SuggestedFix{
		Message:   "iterate over slices.Sorted(maps.Keys(...)) instead",
		TextEdits: edits,
	}, true
}

// importEdits returns insertions adding the named stdlib imports to the
// file containing pos, skipping ones already present. The fixer dedupes
// identical insertions, so several fixes in one file stay consistent.
func importEdits(pass *analysis.Pass, pos token.Pos, names ...string) []analysis.TextEdit {
	var file *ast.File
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			file = f
			break
		}
	}
	if file == nil {
		return nil
	}
	have := map[string]bool{}
	for _, imp := range file.Imports {
		have[strings.Trim(imp.Path.Value, `"`)] = true
	}
	var missing []string
	for _, n := range names {
		if !have[n] {
			missing = append(missing, n)
		}
	}
	if len(missing) == 0 {
		return nil
	}

	// Insert into the first parenthesized import declaration, in front of
	// the first existing spec (gofmt re-sorts grouped stdlib imports only
	// if already sorted, so keep them sorted by inserting each name where
	// it belongs).
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		if !gd.Lparen.IsValid() || len(gd.Specs) == 0 {
			// `import "x"` single form: add a grouped decl after it.
			text := "\nimport (\n"
			for _, n := range missing {
				text += "\t\"" + n + "\"\n"
			}
			text += ")\n"
			return []analysis.TextEdit{{Pos: gd.End(), End: gd.End(), NewText: []byte(text)}}
		}
		var edits []analysis.TextEdit
		for _, n := range missing {
			// Keep the group sorted: insert before the first larger path,
			// or just inside the closing paren.
			insertAt := gd.Rparen
			for _, spec := range gd.Specs {
				is := spec.(*ast.ImportSpec)
				if strings.Trim(is.Path.Value, `"`) > n {
					insertAt = is.Pos()
					break
				}
			}
			edits = append(edits, analysis.TextEdit{Pos: insertAt, End: insertAt, NewText: []byte("\"" + n + "\"\n")})
		}
		return edits
	}
	// No import declaration at all: add one after the package clause.
	text := "\n\nimport (\n"
	for _, n := range missing {
		text += "\t\"" + n + "\"\n"
	}
	text += ")"
	return []analysis.TextEdit{{Pos: file.Name.End(), End: file.Name.End(), NewText: []byte(text)}}
}

// freshName returns base if it does not collide with any identifier in
// the file, else base2, base3, ...
func freshName(pass *analysis.Pass, rs *ast.RangeStmt, base string) string {
	used := map[string]bool{}
	for _, f := range pass.Files {
		if f.FileStart <= rs.Pos() && rs.Pos() < f.FileEnd {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					used[id.Name] = true
				}
				return true
			})
		}
	}
	if !used[base] {
		return base
	}
	for i := 2; ; i++ {
		cand := base + string(rune('0'+i%10))
		if !used[cand] {
			return cand
		}
	}
}

// ---- type helpers ----

func isOrdered(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsFloat|types.IsString) != 0
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
