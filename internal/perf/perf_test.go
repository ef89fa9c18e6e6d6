package perf

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// BenchmarkHarness exposes every harness entry to `go test -bench`, so
// the CI smoke job (-benchtime=1x) executes each one once.
func BenchmarkHarness(b *testing.B) {
	for _, bm := range Benchmarks() {
		b.Run(bm.Name, bm.Func)
	}
}

func TestHarnessNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, bm := range Benchmarks() {
		if seen[bm.Name] {
			t.Errorf("duplicate harness entry %q", bm.Name)
		}
		seen[bm.Name] = true
		if bm.Desc == "" || bm.Func == nil {
			t.Errorf("harness entry %q incomplete", bm.Name)
		}
	}
}

// TestBaselineMatchesRegistry keeps the checked-in BENCH_engine.json in
// step with the registry: every entry is recorded with the budget it
// declares, and the file holds nothing else but the paper_sweep_*
// entries `almbench -perf-sweep` folds in. Regenerate with `make bench`.
func TestBaselineMatchesRegistry(t *testing.T) {
	f, err := os.Open("../../BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	recorded := make(map[string]Result, len(doc.Results))
	for _, r := range doc.Results {
		recorded[r.Name] = r
	}
	registered := map[string]bool{}
	for _, bm := range Benchmarks() {
		registered[bm.Name] = true
		r, ok := recorded[bm.Name]
		if !ok {
			t.Errorf("%s: missing from BENCH_engine.json", bm.Name)
			continue
		}
		if !reflect.DeepEqual(r.Budget, bm.Budget) {
			t.Errorf("%s: recorded budget %+v, registry declares %+v", bm.Name, r.Budget, bm.Budget)
		}
	}
	for _, r := range doc.Results {
		if !registered[r.Name] && !strings.HasPrefix(r.Name, "paper_sweep_") {
			t.Errorf("%s: in BENCH_engine.json but not in the registry", r.Name)
		}
	}
}

func TestWriteJSONShape(t *testing.T) {
	results := []Result{{
		Name: "x", Desc: "d", Iterations: 2, NsPerOp: 1.5,
		Metrics: map[string]float64{"max_event_queue": 42},
	}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if f.Schema != "alm/bench-engine/v1" || f.Scale != Scale || len(f.Results) != 1 {
		t.Fatalf("unexpected document: %+v", f)
	}
	if !strings.Contains(buf.String(), `"max_event_queue": 42`) {
		t.Errorf("metrics missing from output:\n%s", buf.String())
	}
}
