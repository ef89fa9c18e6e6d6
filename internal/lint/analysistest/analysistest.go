// Package analysistest runs analyzers over fixture packages under
// testdata/src and checks their diagnostics against `// want` comments,
// mirroring golang.org/x/tools/go/analysis/analysistest closely enough
// that fixtures are written the same way:
//
//	start := time.Now() // want `time\.Now`
//
// Each quoted string after `want` is a regexp that must match a
// diagnostic reported on that line; every diagnostic must be wanted and
// every want must be matched. Fixtures run through the same driver as
// almvet itself, so //almvet:allow directives are honoured — which is how
// the suppression fixtures prove single-line scoping.
package analysistest

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"alm/internal/lint/analysis"
	"alm/internal/lint/driver"
	"alm/internal/lint/fixer"
	"alm/internal/lint/loader"
)

// wantRe matches the expectation comment syntax: // want "re" `re` ...
var wantRe = regexp.MustCompile("//\\s*want\\s+((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")

var argRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// Run loads the fixture package in dir, runs the analyzers over it
// through the almvet driver, and checks their diagnostics against its
// want comments and their suggested fixes against its .fixed goldens.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	l, err := loader.New(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	p, err := l.LoadDir(dir, filepath.Base(dir))
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	for _, terr := range p.TypeErrors {
		t.Errorf("fixture does not type-check: %v", terr)
	}
	if t.Failed() {
		t.FailNow()
	}
	diags, err := driver.Run(driver.Target{
		Fset:  l.Fset,
		Files: p.Files,
		Pkg:   p.Types,
		Info:  p.Info,
	}, analyzers)
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	checkWants(t, l.Fset, p, diags)
	checkFixes(t, l.Fset, p, diags)
}

// checkFixes compares the result of applying suggested fixes against
// `<file>.fixed` golden files. Every fixture file for which some
// diagnostic carries a fix must have a golden, and every golden must be
// earned by at least one fix — a stale golden fails the test, so the
// fixtures cannot drift from the fixer. Setting ALMVET_UPDATE_FIXED=1
// regenerates the goldens from the fixer's actual output instead of
// comparing.
func checkFixes(t *testing.T, fset *token.FileSet, p *loader.Package, diags []analysis.Diagnostic) {
	t.Helper()
	update := os.Getenv("ALMVET_UPDATE_FIXED") != ""
	for _, f := range p.Files {
		filename := fset.Position(f.Pos()).Filename
		var fileDiags []analysis.Diagnostic
		hasFix := false
		for _, d := range diags {
			if fset.Position(d.Pos).Filename != filename {
				continue
			}
			fileDiags = append(fileDiags, d)
			if len(d.SuggestedFixes) > 0 {
				hasFix = true
			}
		}
		golden := filename + ".fixed"
		want, err := os.ReadFile(golden)
		if !hasFix {
			if err == nil {
				t.Errorf("%s exists but no diagnostic on %s carries a suggested fix", golden, filepath.Base(filename))
			}
			continue
		}
		src, err2 := os.ReadFile(filename)
		if err2 != nil {
			t.Fatalf("read %s: %v", filename, err2)
		}
		got, applied, err2 := fixer.Apply(fset, filename, src, fileDiags)
		if err2 != nil {
			t.Errorf("apply fixes to %s: %v", filepath.Base(filename), err2)
			continue
		}
		if applied == 0 {
			t.Errorf("%s: fixes present but none applied", filepath.Base(filename))
			continue
		}
		if update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatalf("update golden %s: %v", golden, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("diagnostics on %s carry suggested fixes but golden %s is missing (run with ALMVET_UPDATE_FIXED=1 to create)", filepath.Base(filename), golden)
			continue
		}
		if d := fixer.Unified(filepath.Base(golden), want, got); d != nil {
			t.Errorf("fixed output for %s differs from golden:\n%s", filepath.Base(filename), d)
		}
	}
}

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

func checkWants(t *testing.T, fset *token.FileSet, p *loader.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range argRe.FindAllString(m[1], -1) {
					var pat string
					if q[0] == '`' {
						pat = q[1 : len(q)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.met || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Category, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}
