package registry_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alm/internal/lint/analysistest"
	"alm/internal/lint/registry"
)

// fixtures is the analysistest fixture root: one directory per analyzer,
// plus `allow`, which driver's TestAllowDirectives runs the whole suite
// over.
var fixtures = filepath.Join("..", "testdata", "src")

// TestFixtures runs each registered analyzer over testdata/src/<Name>,
// checking its `// want` expectations and `.fixed` goldens.
func TestFixtures(t *testing.T) {
	for _, s := range registry.All() {
		t.Run(s.Name, func(t *testing.T) {
			analysistest.Run(t, filepath.Join(fixtures, s.Name), s.Analyzer)
		})
	}
}

// TestFixtureCoverage fails when a registered analyzer has no fixture
// directory with at least one `// want`, or when a fixture directory
// other than `allow` names no registered analyzer.
func TestFixtureCoverage(t *testing.T) {
	registered := make(map[string]bool)
	for _, s := range registry.All() {
		registered[s.Name] = true
		if !hasWant(t, filepath.Join(fixtures, s.Name)) {
			t.Errorf("analyzer %s has no fixture under %s with a // want", s.Name, filepath.Join(fixtures, s.Name))
		}
	}
	entries, err := os.ReadDir(fixtures)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && e.Name() != "allow" && !registered[e.Name()] {
			t.Errorf("fixture directory %s names no registered analyzer", e.Name())
		}
	}
}

func hasWant(t *testing.T, dir string) bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(src, []byte("// want ")) {
			return true
		}
	}
	return false
}
