// Command almbench regenerates the paper's evaluation: every figure and
// table from Section V of "Cracking Down MapReduce Failure Amplification
// through Analytics Logging and Migration" (IPPS 2015), plus the
// design-choice ablations.
//
// Usage:
//
//	almbench                  # run everything at paper scale
//	almbench -exp fig8,fig9   # run selected experiments
//	almbench -scale 0.125     # 1/8-size datasets for a quick pass
//	almbench -list            # list experiment IDs
//	almbench -perf            # run the engine performance harness,
//	                          # writing BENCH_engine.json
//	almbench -perf -check-budgets
//	                          # the `make bench-alloc` CI gate: fail if
//	                          # any benchmark exceeds its allocation
//	                          # budget (budget × (1 + tolerance))
//	almbench -compare old.json [new.json]
//	                          # per-benchmark ns/op, B/op, allocs/op
//	                          # deltas between two BENCH_engine.json
//	                          # files (new defaults to the -perf-out
//	                          # path, i.e. the checked-in baseline)
//	almbench -metrics-dir m/  # dump one Prometheus-text metrics file
//	                          # per simulated case under m/
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"alm"
	"alm/internal/perf"
	"alm/internal/sweep"
)

func main() {
	var (
		expFlag  = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = paper sizes)")
		seed     = flag.Int64("seed", 11, "simulation seed")
		listFlag = flag.Bool("list", false, "list experiment IDs and exit")
		workers  = flag.Int("workers", runtime.NumCPU(), "parallel sweep engines (tables are byte-identical at any worker count)")
		format   = flag.String("format", "text", "output format: text | json | csv")
		perfFlag = flag.Bool("perf", false, "run the engine performance harness instead of experiments")
		perfSwp  = flag.Bool("perf-sweep", false, "time the full paper sweep at 1 and 8 workers and fold the wall-clock results into -perf-out")
		perfOut  = flag.String("perf-out", "BENCH_engine.json", "output path for -perf results ('-' for stdout, '' to skip writing)")
		budgets  = flag.Bool("check-budgets", false, "with -perf: verify results against their allocation budgets and exit 1 on any breach")
		compare  = flag.String("compare", "", "old BENCH_engine.json to diff against; the new file is the first positional argument (default: the -perf-out path)")
		metrDir  = flag.String("metrics-dir", "", "directory to dump one Prometheus-text metrics file per simulated case")
	)
	flag.Parse()

	if *compare != "" {
		newPath := *perfOut
		if flag.NArg() > 0 {
			newPath = flag.Arg(0)
		}
		oldRes, err := readBenchFile(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %v\n", err)
			os.Exit(1)
		}
		newRes, err := readBenchFile(newPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# %s -> %s\n", *compare, newPath)
		perf.WriteComparison(os.Stdout, oldRes, newRes)
		return
	}

	if *perfFlag {
		results := perf.RunAll(os.Stderr)
		if *perfOut != "" {
			out := os.Stdout
			if *perfOut != "-" {
				f, err := os.Create(*perfOut)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perf: %v\n", err)
					os.Exit(1)
				}
				defer f.Close()
				out = f
			}
			if err := perf.WriteJSON(out, results); err != nil {
				fmt.Fprintf(os.Stderr, "perf: %v\n", err)
				os.Exit(1)
			}
			if *perfOut != "-" {
				fmt.Printf("wrote %d benchmark results to %s\n", len(results), *perfOut)
			}
		}
		if *budgets {
			if violations := perf.CheckBudgets(results); len(violations) > 0 {
				for _, v := range violations {
					fmt.Fprintf(os.Stderr, "budget breach: %s\n", v)
				}
				os.Exit(1)
			}
			fmt.Println("all benchmarks within allocation budget")
		}
		return
	}

	if *perfSwp {
		if err := runPerfSweep(*scale, *seed, *perfOut); err != nil {
			fmt.Fprintf(os.Stderr, "perf-sweep: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *listFlag {
		for _, id := range alm.ExperimentIDs() {
			fmt.Printf("%-10s %s\n", id, alm.ExperimentDescription(id))
		}
		return
	}

	ids := alm.ExperimentIDs()
	if *expFlag != "" {
		ids = strings.Split(*expFlag, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	opt := alm.ExperimentOptions{Scale: *scale, Seed: *seed, Workers: *workers}

	// sinkFailed counts metrics-file write errors; the sink runs on
	// whichever worker finishes the owning experiment, so the counter is
	// atomic. Each case key maps to a distinct file, so concurrent
	// writes never collide.
	var sinkFailed atomic.Int32
	if *metrDir != "" {
		if err := os.MkdirAll(*metrDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-dir: %v\n", err)
			os.Exit(1)
		}
		opt.MetricsSink = func(caseKey string, snap *alm.MetricsSnapshot) {
			if snap == nil {
				return
			}
			name := strings.ReplaceAll(caseKey, "/", "__") + ".prom"
			path := filepath.Join(*metrDir, name)
			if err := os.WriteFile(path, snap.Prometheus(), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "metrics %s: %v\n", caseKey, err)
				sinkFailed.Add(1)
			}
		}
	}

	// The full sweep fans experiments over the shared scheduler: each
	// unit renders its table off to the side, delivery prints in ID
	// order, so stdout matches the historical serial loop at any worker
	// count.
	failed := 0
	outs := make([]struct {
		text string
		err  error
	}, len(ids))
	sweep.Do(context.Background(), len(ids), *workers, func(i int) error {
		id := ids[i]
		start := time.Now() //almvet:allow detnow -- wall-clock runtime of the experiment binary itself, not simulated time
		tbl, err := alm.RunExperiment(id, opt)
		if err != nil {
			outs[i].err = fmt.Errorf("experiment %s failed: %v", id, err)
			return nil
		}
		switch *format {
		case "json":
			data, err := json.MarshalIndent(tbl, "", "  ")
			if err != nil {
				outs[i].err = fmt.Errorf("experiment %s: %v", id, err)
				return nil
			}
			outs[i].text = string(data) + "\n"
		case "csv":
			outs[i].text = fmt.Sprintf("# %s: %s\n%s\n", tbl.ID, tbl.Title, tbl.RenderCSV())
		default:
			outs[i].text = tbl.Render() +
				fmt.Sprintf("(%s computed in %v wall time)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
		return nil
	}, func(i int, err error) {
		if err != nil && outs[i].err == nil {
			outs[i].err = err
		}
		if outs[i].err != nil {
			fmt.Fprintln(os.Stderr, outs[i].err)
			failed++
			return
		}
		fmt.Print(outs[i].text)
	})
	if failed+int(sinkFailed.Load()) > 0 {
		os.Exit(1)
	}
}

// runPerfSweep times the full paper sweep (every experiment ID) at 1 and
// 8 workers and folds the wall-clock results into the BENCH_engine.json
// at outPath, keeping every other benchmark entry intact. The sweep
// output is byte-identical at both worker counts, so the two entries
// measure scheduling overhead and parallel speedup only; the speedup
// recorded is bounded by the machine's core count.
func runPerfSweep(scale float64, seed int64, outPath string) error {
	if outPath == "" || outPath == "-" {
		return fmt.Errorf("needs a writable -perf-out path")
	}
	ids := alm.ExperimentIDs()
	scaleTag := strconv.FormatFloat(scale, 'g', -1, 64)
	var results []perf.Result
	for _, w := range []int{1, 8} {
		opt := alm.ExperimentOptions{Scale: scale, Seed: seed, Workers: w}
		start := time.Now() //almvet:allow detnow -- wall-clock measurement is the whole point here
		for _, id := range ids {
			expStart := time.Now() //almvet:allow detnow -- progress reporting
			if _, err := alm.RunExperiment(id, opt); err != nil {
				return fmt.Errorf("experiment %s at %d workers: %v", id, w, err)
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			fmt.Fprintf(os.Stderr, "  %-10s %8v  heap %5.1f GiB (sys %5.1f GiB)\n",
				id, time.Since(expStart).Round(time.Millisecond),
				float64(ms.HeapAlloc)/(1<<30), float64(ms.HeapSys)/(1<<30))
		}
		elapsed := time.Since(start)
		name := fmt.Sprintf("paper_sweep_%sx_workers%d", scaleTag, w)
		fmt.Fprintf(os.Stderr, "%-32s %14.0f ns/op  (%v wall)\n", name, float64(elapsed.Nanoseconds()), elapsed.Round(time.Millisecond))
		results = append(results, perf.Result{
			Name:       name,
			Desc:       fmt.Sprintf("full paper sweep (%d experiments) at %sx scale, %d sweep workers, wall clock", len(ids), scaleTag, w),
			Iterations: 1,
			NsPerOp:    float64(elapsed.Nanoseconds()),
		})
	}
	base, err := readBenchFile(outPath)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	merged := perf.MergeResults(base, results)
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := perf.WriteJSON(f, merged); err != nil {
		return err
	}
	fmt.Printf("folded %d sweep results into %s (%d total)\n", len(results), outPath, len(merged))
	return nil
}

// readBenchFile loads one BENCH_engine.json document's results.
func readBenchFile(path string) ([]perf.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := perf.ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.Results, nil
}
