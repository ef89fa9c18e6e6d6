// Package driver runs a set of analyzers over one type-checked package,
// applies //almvet:allow suppression directives, and returns the surviving
// diagnostics in a stable order. almvet and the analysistest harness both
// funnel through here, so suppression semantics are identical everywhere.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"alm/internal/lint/analysis"
)

// Target is one package to analyze.
type Target struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Run executes the analyzers and returns directive-filtered diagnostics
// sorted by Sort. Diagnostics in _test.go files are dropped: the
// determinism and log-durability invariants bind the simulator, not its
// test scaffolding.
func Run(t Target, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var files []*ast.File
	for _, f := range t.Files {
		if !strings.HasSuffix(t.Fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	allows := collectAllows(t.Fset, files)
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      t.Fset,
			Files:     files,
			Pkg:       t.Pkg,
			TypesInfo: t.Info,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			d.Category = name
			if allows.suppressed(t.Fset, d) {
				return
			}
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	Sort(t.Fset, diags)
	return diags, nil
}

// Sort orders diagnostics by (file, line, column, analyzer), the one
// byte-stable order almvet prints them in.
func Sort(fset *token.FileSet, diags []analysis.Diagnostic) {
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
		return diags[i].Category < diags[j].Category
	})
}

// Format renders a diagnostic the way vet does.
func Format(fset *token.FileSet, d analysis.Diagnostic) string {
	return fmt.Sprintf("%s: [%s] %s", fset.Position(d.Pos), d.Category, d.Message)
}
