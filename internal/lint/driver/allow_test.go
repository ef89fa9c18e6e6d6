package driver_test

import (
	"path/filepath"
	"testing"

	"alm/internal/lint/analysistest"
	"alm/internal/lint/registry"
)

// TestAllowDirectives runs the full analyzer suite over the `allow`
// fixture, which pairs each suppressed violation with an identical
// unsuppressed one on the next line — proving //almvet:allow works and is
// scoped to a single line for every analyzer.
func TestAllowDirectives(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "testdata", "src", "allow"), registry.Analyzers()...)
}
