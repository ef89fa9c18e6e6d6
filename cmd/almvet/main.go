// Command almvet is the repo's vet tool: the analyzer suite (detnow,
// droppederr, hotalloc, locksafe, seedflow, and the flow-sensitive
// maporder, timerflow, allocflow) that enforces the simulator's
// determinism contract, the ALG no-silent-log-loss rule, lock
// discipline, and hot-path allocation budgets. See DESIGN.md "Static
// analysis gates".
//
//	almvet ./...             # report findings; exit 2 if there are any
//	almvet -fix ./...        # apply suggested fixes in place (gofmt-clean)
//	almvet -fix -diff ./...  # dry run: print a unified diff, write nothing
//
// almvet loads and type-checks packages itself through
// internal/lint/loader, runs every analyzer whose registry scope covers
// the package, and prints diagnostics in one byte-stable global order
// (file, line, column, analyzer). -fix -diff exits 2 when the diff is
// non-empty or a finding has no fix, so CI can assert that the tree has
// nothing outstanding.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"alm/internal/lint/analysis"
	"alm/internal/lint/driver"
	"alm/internal/lint/fixer"
	"alm/internal/lint/loader"
	"alm/internal/lint/registry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("almvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fixFlag := fs.Bool("fix", false, "apply suggested fixes")
	diffFlag := fs.Bool("diff", false, "with -fix, print a unified diff instead of writing files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diffFlag && !*fixFlag {
		fmt.Fprintln(stderr, "almvet: -diff requires -fix")
		return 2
	}
	return analyze(fs.Args(), fixMode{apply: *fixFlag, diff: *diffFlag}, stdout, stderr)
}

// fixMode selects what analyze does with suggested fixes: nothing,
// rewrite files in place, or print a dry-run unified diff.
type fixMode struct {
	apply bool
	diff  bool
}

// analyze loads package patterns and runs the scoped suite.
// Diagnostics from every package are collected first and emitted in one
// byte-stable global order — (file, line, column, analyzer) — so runs
// over different pattern spellings of the same package set produce
// identical output.
func analyze(patterns []string, mode fixMode, stdout, stderr io.Writer) int {
	l, err := loader.New(".")
	if err != nil {
		fmt.Fprintf(stderr, "almvet: %v\n", err)
		return 1
	}
	paths, err := expandPatterns(l, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "almvet: %v\n", err)
		return 1
	}
	exit := 0
	var all []analysis.Diagnostic
	for _, path := range paths {
		var analyzers []*analysis.Analyzer
		for _, s := range registry.All() {
			if s.AppliesTo(path) {
				analyzers = append(analyzers, s.Analyzer)
			}
		}
		if len(analyzers) == 0 {
			continue
		}
		pkg, err := l.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "almvet: %v\n", err)
			exit = 1
			continue
		}
		if len(pkg.TypeErrors) > 0 {
			for _, e := range pkg.TypeErrors {
				fmt.Fprintf(stderr, "almvet: %s: %v\n", path, e)
			}
			exit = 1
			continue
		}
		diags, err := driver.Run(driver.Target{Fset: l.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "almvet: %v\n", err)
			exit = 1
			continue
		}
		all = append(all, diags...)
	}

	driver.Sort(l.Fset, all)

	if !mode.apply {
		for _, d := range all {
			fmt.Fprintf(stderr, "%s\n", driver.Format(l.Fset, d))
		}
		if len(all) > 0 && exit == 0 {
			exit = 2
		}
		return exit
	}
	return applyFixes(l, all, mode, stdout, stderr, exit)
}

// applyFixes rewrites (or, in diff mode, previews) the suggested fixes
// for the collected diagnostics. Diagnostics without an applied fix are
// still printed: -fix resolves what it can and reports the rest.
func applyFixes(l *loader.Loader, all []analysis.Diagnostic, mode fixMode, stdout, stderr io.Writer, exit int) int {
	byFile := make(map[string][]analysis.Diagnostic)
	var files []string
	fixable := make(map[string]bool)
	for _, d := range all {
		name := l.Fset.Position(d.Pos).Filename
		if _, ok := byFile[name]; !ok {
			files = append(files, name)
		}
		byFile[name] = append(byFile[name], d)
		if len(d.SuggestedFixes) > 0 {
			fixable[name] = true
		}
	}
	sort.Strings(files)

	cwd, _ := os.Getwd()
	changed := false
	for _, name := range files {
		if !fixable[name] {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintf(stderr, "almvet: %v\n", err)
			exit = 1
			continue
		}
		fixed, applied, err := fixer.Apply(l.Fset, name, src, byFile[name])
		if err != nil {
			fmt.Fprintf(stderr, "almvet: %s: %v\n", name, err)
			exit = 1
			continue
		}
		if applied == 0 || bytes.Equal(fixed, src) {
			continue
		}
		changed = true
		display := name
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				display = rel
			}
		}
		if mode.diff {
			stdout.Write(fixer.Unified(display, src, fixed))
			continue
		}
		if err := os.WriteFile(name, fixed, 0o644); err != nil {
			fmt.Fprintf(stderr, "almvet: %v\n", err)
			exit = 1
			continue
		}
		fmt.Fprintf(stderr, "almvet: %s: applied %d fix(es)\n", display, applied)
	}

	// Report what -fix could not resolve. (After an in-place rewrite the
	// positions refer to the pre-fix file, so only fixless diagnostics
	// are printed — re-run almvet for fresh positions.)
	unfixed := 0
	for _, d := range all {
		if len(d.SuggestedFixes) == 0 {
			fmt.Fprintf(stderr, "%s\n", driver.Format(l.Fset, d))
			unfixed++
		}
	}
	if exit == 0 && (unfixed > 0 || (mode.diff && changed)) {
		exit = 2
	}
	return exit
}

// expandPatterns resolves vet-style package patterns ("./...", "./x",
// import paths) against the loader's module to a sorted import path list.
func expandPatterns(l *loader.Loader, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	add := func(dir string) error {
		path, err := importPathFor(l, dir)
		if err != nil {
			return err
		}
		if !seen[path] && hasGoFiles(dir) {
			seen[path] = true
			out = append(out, path)
		}
		return nil
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(cwd, strings.TrimSuffix(rest, "/"))
			err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor" || name == "bin") {
					return filepath.SkipDir
				}
				return add(p)
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := pat
		if !filepath.IsAbs(dir) && (strings.HasPrefix(pat, "./") || pat == "." || dirExists(filepath.Join(cwd, pat))) {
			dir = filepath.Join(cwd, pat)
		} else if rest, ok := strings.CutPrefix(pat, l.ModulePath+"/"); ok {
			dir = filepath.Join(l.ModuleRoot, filepath.FromSlash(rest))
		} else if pat == l.ModulePath {
			dir = l.ModuleRoot
		}
		if !dirExists(dir) {
			return nil, fmt.Errorf("package pattern %q: no such directory", pat)
		}
		if err := add(dir); err != nil {
			return nil, err
		}
	}
	// WalkDir yields lexical order per pattern, but multiple patterns can
	// interleave arbitrarily; sort so the load order (and any load errors)
	// is stable regardless of how the package set was spelled.
	sort.Strings(out)
	return out, nil
}

func importPathFor(l *loader.Loader, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, l.ModulePath)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}

func dirExists(p string) bool {
	fi, err := os.Stat(p)
	return err == nil && fi.IsDir()
}
