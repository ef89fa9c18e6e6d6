// Command benchmark is the repository's benchmark. It drives the simulator
// through its public entry points (alm.Run for jobs, sweep.Do for fan-out,
// chaos.Generate for fault schedules) on one workload, checks every job
// against its fault-free reference and against its own earlier runs, and
// prints its metrics by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 it is a timed run and reports the end-to-end metrics.
// With --trace 1 it runs the workload untimed, then again under a CPU
// profile with spans recorded at its own call sites, and reports the
// per-layer metrics. README.md describes the workloads and metrics.
//
// Build and run it from the repository root with
//
//	bash benchmark/run.sh --workload table2_amplification --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"alm"
	"alm/internal/sweep"
)

// setupReps is how many times a timed run sets up; setup_s is the median.
const setupReps = 3

// outDir holds the result, span and profile files, relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build/bench-out"

// parityJobs is how many of a parallel workload's jobs are re-run on one
// sweep worker after the timed runs, to check that results do not depend
// on the worker count. Six is one engine seed's whole Table II matrix.
const parityJobs = 6

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: table2_amplification, scale_400_nodes or chaos_small_jobs")
		seed    = flag.Int64("seed", 1, "seed every input of the workload is generated from")
		seconds = flag.Int("seconds", 25, "how long the timed runs last")
		traced  = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (one of table2_amplification, scale_400_nodes, chaos_small_jobs), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	b := &bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, t0: time.Now()}
	var res result
	var err error
	if *traced == 1 {
		res, err = b.traced()
	} else {
		res, err = b.timed()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	res.Fingerprint = machine()
	res.Workload, res.Seed, res.Trace = w.name, *seed, *traced
	if err := b.report(&res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// bench is one benchmark run of one workload and seed.
type bench struct {
	w       workload
	seed    int64
	seconds time.Duration
	t0      time.Time

	p      pass
	refOut [][]alm.Record
	chk    checker
	spans  *spanLog // records passes; nil outside the traced phase
}

// outcome is everything deterministic about one job: it must repeat
// exactly on every run of the job, timed or traced, at any worker count.
type outcome struct {
	simNanos        int64
	events, stopped uint64
	maxQueue        int
	attemptFailures int
	amplified       int
	mapReruns       int64
	fetchRetries    int
	waitAdvisories  int
	policyDecisions int64
	launched        int64
	finished        int64
	containers      int64
	nodesLost       int64
	netBytes        int64
	connectFailures int64
	diskRead        int64
	diskWrite       int64
	algLogWrites    int64
	tierPush        int64
	tierRepl        int64
	tierRepush      int64
	traceEvents     int64
	metricSeries    int
	outputHash      uint64
	exportHash      uint64
}

// jobRun is one run of one job: its outcome, its failure if any, and the
// host times of its steps.
type jobRun struct {
	out outcome
	err string // empty when the job completed with its reference's output

	start, ran, metricsDone, logDone, end, delivered time.Time
	done                                             bool // the sweep ran and delivered it
}

// hostSeconds is what the job cost its user: the simulation plus exports.
func (r *jobRun) hostSeconds() float64 { return r.logDone.Sub(r.start).Seconds() }

// passRun is one sweep over (a prefix of) the workload's jobs.
type passRun struct {
	start, end time.Time
	runs       []jobRun
}

func (pr *passRun) wall() float64 { return pr.end.Sub(pr.start).Seconds() }

// setup generates the workload's jobs from the seed and computes every
// fault-free reference; the reference runs also warm the process up.
func (b *bench) setup() error {
	b.p = b.w.build(b.seed)
	out := make([][]alm.Record, len(b.p.refs))
	err := sweep.Do(context.Background(), len(b.p.refs), b.w.workers, func(i int) error {
		r := b.p.refs[i]
		res, err := alm.Run(r.spec, r.cluster)
		if err != nil {
			return err
		}
		if !res.Completed {
			return fmt.Errorf("fault-free reference %d did not complete: %s", i, res.FailReason)
		}
		out[i] = res.Output
		return nil
	}, nil)
	if err != nil {
		return err
	}
	if b.refOut != nil {
		for i := range out {
			if !sameOutput(out[i], b.refOut[i]) {
				return fmt.Errorf("fault-free reference %d differs between set-ups", i)
			}
		}
	}
	b.refOut = out
	b.chk = checker{want: make([]outcome, len(b.p.jobs)), set: make([]bool, len(b.p.jobs))}
	return nil
}

// runJob runs job i the way the workload's users do and checks it.
func (b *bench) runJob(i int) jobRun {
	j := &b.p.jobs[i]
	r := jobRun{start: time.Now()}
	res, err := alm.Run(j.spec, j.cluster, j.opts...)
	r.ran = time.Now()
	r.metricsDone, r.logDone = r.ran, r.ran
	var exportHash uint64
	if err == nil && j.export {
		h := fnv.New64a()
		h.Write(res.Metrics.Prometheus())
		r.metricsDone = time.Now()
		io.WriteString(h, res.Trace.Dump())
		r.logDone = time.Now()
		exportHash = h.Sum64()
	}
	switch {
	case err != nil:
		r.err = "run error: " + err.Error()
	case !res.Completed || res.Failed:
		r.err = "did not complete: " + res.FailReason
	case !sameOutput(res.Output, b.refOut[j.ref]):
		r.err = fmt.Sprintf("output differs from the fault-free reference (%d vs %d records)", len(res.Output), len(b.refOut[j.ref]))
	default:
		r.out = outcomeOf(res, exportHash)
	}
	r.end = time.Now()
	return r
}

// runPass sweeps jobs [0, n) on workers. Cancelling ctx stops new jobs
// from starting; jobs already running finish and are kept.
func (b *bench) runPass(ctx context.Context, n, workers int) passRun {
	pr := passRun{start: time.Now(), runs: make([]jobRun, n)}
	sweep.Do(ctx, n, workers, func(i int) error {
		pr.runs[i] = b.runJob(i)
		return nil
	}, func(i int, err error) {
		r := &pr.runs[i]
		r.delivered, r.done = time.Now(), true
		if err != nil { // a panic inside the job
			r.err = err.Error()
		}
	})
	pr.end = time.Now()
	b.chk.check(&pr)
	if b.spans != nil {
		b.spans.pass(&pr, b.p.jobs)
	}
	return pr
}

// checker holds each job's first outcome and fails every later run of the
// job whose outcome differs.
type checker struct {
	want      []outcome
	set       []bool
	attempted int
	failed    int
	notes     []string
}

func (c *checker) check(pr *passRun) {
	for i := range pr.runs {
		r := &pr.runs[i]
		if !r.done {
			continue
		}
		c.attempted++
		if r.err == "" {
			if !c.set[i] {
				c.want[i], c.set[i] = r.out, true
			} else if r.out != c.want[i] {
				r.err = fmt.Sprintf("outcome differs from the job's first run: %+v vs %+v", r.out, c.want[i])
			}
		}
		if r.err != "" {
			c.failed++
			if len(c.notes) < 5 {
				c.notes = append(c.notes, fmt.Sprintf("job %d: %s", i, r.err))
			}
		}
	}
}

// timed is the --trace 0 run: set up several times, run passes of the
// workload for the run's seconds, then re-check a parallel workload's
// first jobs on one worker.
func (b *bench) timed() (result, error) {
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		if err := b.setup(); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	ctx, cancel := context.WithTimeout(context.Background(), b.seconds)
	defer cancel()
	var passes []passRun
	for {
		pctx := ctx
		if len(passes) == 0 {
			pctx = context.Background() // the first pass is always whole
		}
		passes = append(passes, b.runPass(pctx, len(b.p.jobs), b.w.workers))
		if ctx.Err() != nil {
			break
		}
	}
	if b.w.workers > 1 {
		b.runPass(context.Background(), min(parityJobs, len(b.p.jobs)), 1)
	}

	var host []float64
	for _, pr := range passes {
		for i := range pr.runs {
			if r := &pr.runs[i]; r.done && r.err == "" {
				host = append(host, r.hostSeconds())
			}
		}
	}
	wall := passes[len(passes)-1].end.Sub(passes[0].start).Seconds()
	res := b.newResult()
	res.add("setup_s", median(setups), "s")
	res.add("jobs_per_s", ratio(float64(len(host)), wall), "1/s")
	res.add("job_host_s_p50", median(host), "s")
	res.add("peak_rss_mb", peakRSSMB(), "MB")
	res.add("sim_job_s", b.simJobSeconds(), "s")
	res.Extra = map[string]any{
		"setup_s_reps":  setups,
		"timed_jobs":    len(host),
		"timed_passes":  len(passes),
		"timed_wall_s":  wall,
		"failed_ratio":  ratio(float64(b.chk.failed), float64(b.chk.attempted)),
		"sweep_workers": b.w.workers,
	}
	if v, p, ok := tail(host); ok {
		res.Extra["job_host_s_tail"] = map[string]any{"value": v, "unit": "s", "percentile": p, "samples": len(host)}
	}
	return res, nil
}

// simJobSeconds is the mean simulated job time over one pass's verified
// jobs.
func (b *bench) simJobSeconds() float64 {
	var sum, n float64
	for i, o := range b.chk.want {
		if b.chk.set[i] {
			sum += float64(o.simNanos) / 1e9
			n++
		}
	}
	return ratio(sum, n)
}

func (b *bench) newResult() result {
	return result{
		Correct:   b.chk.failed == 0,
		Attempted: b.chk.attempted,
		Failed:    b.chk.failed,
		Metrics:   map[string]metric{},
		Notes:     b.chk.notes,
	}
}

// phase runs whole passes until d has passed and at least minPasses ran.
func (b *bench) phase(d time.Duration, minPasses int) []passRun {
	var out []passRun
	end := time.Now().Add(d)
	for len(out) < minPasses || time.Now().Before(end) {
		out = append(out, b.runPass(context.Background(), len(b.p.jobs), b.w.workers))
	}
	return out
}

// traced is the --trace 1 run: one set-up, an untimed phase of whole
// passes, then a traced phase of at least two whole passes under the CPU
// profiler with spans recorded. Every job's outcome in the traced phase
// must equal its outcome in the untraced phase.
func (b *bench) traced() (result, error) {
	spans := &spanLog{t0: b.t0}
	setupStart := time.Now()
	if err := b.setup(); err != nil {
		return result{}, err
	}
	spans.add("setup", 0, 0, setupStart, time.Now())

	plain := b.phase(b.seconds/2, 1)

	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	b.spans = spans
	spans.parent = spans.add("traced_phase", 0, 0, time.Now(), time.Time{})
	tracedPasses := b.phase(b.seconds/2, 2)
	pprof.StopCPUProfile()
	spans.end(spans.parent, time.Now())
	b.spans = nil
	runtime.ReadMemStats(&after)

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	res := b.newResult()
	layers := foldLayers(samples)
	layerMetrics(&res, layers, len(tracedPasses))
	b.countMetrics(&res)

	n := float64(len(tracedPasses))
	var jobs, busy, wall, waits, verify, exportTrace, exportMetrics float64
	for _, pr := range tracedPasses {
		wall += pr.wall()
		for i := range pr.runs {
			r := &pr.runs[i]
			jobs++
			busy += r.end.Sub(r.start).Seconds()
			waits += r.delivered.Sub(r.end).Seconds()
			verify += r.end.Sub(r.logDone).Seconds()
			exportMetrics += r.metricsDone.Sub(r.ran).Seconds()
			exportTrace += r.logDone.Sub(r.metricsDone).Seconds()
		}
	}
	res.add("trace.export_s", exportTrace/n, "s")
	res.add("metrics.export_s", exportMetrics/n, "s")
	res.add("sweep.busy_ratio", ratio(busy, float64(b.w.workers)*wall), "ratio")
	res.add("sweep.delivery_wait_s", ratio(waits, jobs), "s")
	res.add("gc.cycles", float64(after.NumGC-before.NumGC)/n, "count")
	res.add("gc.pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/n, "ms")
	res.add("gc.alloc_mb_per_job", ratio(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), jobs), "MB")
	res.add("bench.verify_s", verify/n, "s")
	plainRate, tracedRate := passRate(plain), passRate(tracedPasses)
	res.add("bench.trace_overhead_pct", 100*ratio(plainRate-tracedRate, plainRate), "%")

	res.Extra = map[string]any{
		"traced_passes":   len(tracedPasses),
		"untraced_passes": len(plain),
		"jobs_per_pass":   len(b.p.jobs),
		"profile_samples": len(samples),
		"failed_ratio":    ratio(float64(b.chk.failed), float64(b.chk.attempted)),
		"sweep_workers":   b.w.workers,
	}
	var all []map[string]any
	for _, s := range shares(layers) {
		all = append(all, map[string]any{"layer": s.layer, "self_s_per_pass": float64(s.nanos) / 1e9 / n, "share_pct": s.pct})
	}
	res.Extra["layers"] = all

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	if err := spans.write(base + ".spans.jsonl"); err != nil {
		return result{}, err
	}
	res.Extra["profile_file"] = base + ".cpu.pprof"
	res.Extra["spans_file"] = base + ".spans.jsonl"
	return res, nil
}

// passRate is the verified jobs per host second over whole passes.
func passRate(passes []passRun) float64 {
	var jobs, wall float64
	for _, pr := range passes {
		wall += pr.wall()
		for i := range pr.runs {
			if pr.runs[i].err == "" {
				jobs++
			}
		}
	}
	return ratio(jobs, wall)
}

// layers reported by name in the per-layer metrics; a layer of the module
// not listed here counts as "other".
var reportedLayers = []string{
	"fairshare", "sim", "engine", "cluster", "simnet", "simdisk", "dfs",
	"shuffletier", "merge", "workloads", "trace", "metrics", "sweep",
	"core", "mr", "topology", "faults", "gc", "runtime", "bench", "other",
}

// layerMetrics reports each layer's CPU seconds per traced pass and its
// share of the profile.
func layerMetrics(res *result, folded map[string]int64, passes int) {
	grouped := map[string]int64{}
	for l, n := range folded {
		if !slices.Contains(reportedLayers, l) {
			l = "other"
		}
		grouped[l] += n
	}
	pcts := map[string]float64{}
	for _, s := range shares(grouped) {
		pcts[s.layer] = s.pct
	}
	for _, l := range reportedLayers {
		res.add(l+".self_s", float64(grouped[l])/1e9/float64(passes), "s")
		res.add(l+".share", pcts[l], "%")
	}
}

// countMetrics reports the deterministic per-pass counts: the sum over
// one pass's jobs of each job's outcome.
func (b *bench) countMetrics(res *result) {
	var sum outcome
	for _, o := range b.chk.want {
		sum.events += o.events
		sum.stopped += o.stopped
		sum.maxQueue = max(sum.maxQueue, o.maxQueue)
		sum.attemptFailures += o.attemptFailures
		sum.amplified += o.amplified
		sum.mapReruns += o.mapReruns
		sum.fetchRetries += o.fetchRetries
		sum.waitAdvisories += o.waitAdvisories
		sum.policyDecisions += o.policyDecisions
		sum.launched += o.launched
		sum.finished += o.finished
		sum.containers += o.containers
		sum.nodesLost += o.nodesLost
		sum.netBytes += o.netBytes
		sum.connectFailures += o.connectFailures
		sum.diskRead += o.diskRead
		sum.diskWrite += o.diskWrite
		sum.algLogWrites += o.algLogWrites
		sum.tierPush += o.tierPush
		sum.tierRepl += o.tierRepl
		sum.tierRepush += o.tierRepush
		sum.traceEvents += o.traceEvents
		sum.metricSeries += o.metricSeries
	}
	res.add("sim.events", float64(sum.events), "count")
	res.add("sim.stopped", float64(sum.stopped), "count")
	res.add("sim.max_queue", float64(sum.maxQueue), "count")
	res.add("engine.attempt_failures", float64(sum.attemptFailures), "count")
	res.add("engine.amplified_failures", float64(sum.amplified), "count")
	res.add("engine.map_reruns", float64(sum.mapReruns), "count")
	res.add("engine.fetch_retries", float64(sum.fetchRetries), "count")
	res.add("engine.wait_advisories", float64(sum.waitAdvisories), "count")
	res.add("engine.policy_decisions", float64(sum.policyDecisions), "count")
	res.add("engine.useful_attempt_ratio", ratio(float64(sum.finished), float64(sum.launched)), "ratio")
	res.add("cluster.containers_granted", float64(sum.containers), "count")
	res.add("cluster.nodes_lost", float64(sum.nodesLost), "count")
	res.add("simnet.bytes", float64(sum.netBytes), "bytes")
	res.add("simnet.connect_failures", float64(sum.connectFailures), "count")
	res.add("simdisk.read_bytes", float64(sum.diskRead), "bytes")
	res.add("simdisk.write_bytes", float64(sum.diskWrite), "bytes")
	res.add("dfs.alg_log_writes", float64(sum.algLogWrites), "count")
	res.add("shuffletier.push_bytes", float64(sum.tierPush), "bytes")
	res.add("shuffletier.replication_bytes", float64(sum.tierRepl), "bytes")
	res.add("shuffletier.repush_bytes", float64(sum.tierRepush), "bytes")
	res.add("trace.events", float64(sum.traceEvents), "count")
	res.add("metrics.series", float64(sum.metricSeries), "count")
}

// outcomeOf reads a completed job's deterministic outcome from its Result
// and its metrics snapshot.
func outcomeOf(res alm.Result, exportHash uint64) outcome {
	o := outcome{
		simNanos:        int64(res.Duration),
		events:          res.Events.Processed,
		stopped:         res.Events.Stopped,
		maxQueue:        res.Events.MaxQueue,
		attemptFailures: res.MapAttemptFailures + res.ReduceAttemptFailures,
		amplified:       res.AdditionalReduceFailures,
		fetchRetries:    res.FetchRetries,
		waitAdvisories:  res.WaitAdvisories,
		metricSeries:    res.Metrics.Len(),
		tierPush:        res.Counters["tier.push.bytes"],
		tierRepl:        res.Counters["tier.replication.bytes"],
		tierRepush:      res.Counters["tier.repush.bytes"],
		algLogWrites:    res.Counters["alg.hdfs.log.writes"],
		outputHash:      outputHash(res.Output),
		exportHash:      exportHash,
	}
	for _, s := range res.Metrics.Series {
		v := int64(s.Value)
		switch s.Name {
		case "alm_events_total":
			o.traceEvents += v
			switch label(s, "kind") {
			case "task-launched":
				o.launched += v
			case "task-finished":
				o.finished += v
			case "map-rescheduled":
				o.mapReruns += v
			}
		case "alm_policy_decisions_total":
			o.policyDecisions += v
		case "alm_cluster_containers_granted_total":
			o.containers += v
		case "alm_cluster_nodes_lost_total":
			o.nodesLost += v
		case "alm_net_link_bytes_total":
			o.netBytes += v
		case "alm_net_connect_failures_total":
			o.connectFailures += v
		case "alm_disk_read_bytes_total":
			o.diskRead += v
		case "alm_disk_write_bytes_total":
			o.diskWrite += v
		}
	}
	return o
}

func label(s alm.MetricsSeries, name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

func outputHash(recs []alm.Record) uint64 {
	h := fnv.New64a()
	for _, r := range recs {
		io.WriteString(h, r.Key)
		h.Write([]byte{0})
		io.WriteString(h, r.Value)
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func sameOutput(a, b []alm.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's report. The last line of standard output holds
// only its first four fields; the result file holds all of it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Trace       int            `json:"trace"`
	Fingerprint fingerprint    `json:"fingerprint"`
	Extra       map[string]any `json:"extra"`
	Notes       []string       `json:"notes,omitempty"`
}

func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// report prints the human-readable report, writes the full result file,
// and prints the result line last.
func (b *bench) report(res *result) error {
	fp, _ := json.Marshal(res.Fingerprint)
	fmt.Printf("machine %s\n", fp)
	fmt.Printf("workload %s seed %d trace %d workers %d jobs/pass %d\n", res.Workload, res.Seed, res.Trace, b.w.workers, len(b.p.jobs))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	extraNames := make([]string, 0, len(res.Extra))
	for n := range res.Extra {
		extraNames = append(extraNames, n)
	}
	sort.Strings(extraNames)
	for _, n := range extraNames {
		v, _ := json.Marshal(res.Extra[n])
		fmt.Printf("  %-32s %s\n", n, v)
	}
	for _, n := range res.Notes {
		fmt.Printf("  FAILED %s\n", n)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, res.Trace))
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("result file %s\n%s\n", path, line)
	return nil
}

// fingerprint identifies the machine and the code a result came from, so
// wall-clock numbers from different machines are never compared.
type fingerprint struct {
	CPUModel     string `json:"cpu_model"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func machine() fingerprint {
	fp := fingerprint{
		CPUModel:     "unknown",
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
		SourceSHA256: sourceDigest("."),
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					fp.Commit += "+modified"
				}
			}
		}
	}
	return fp
}

// sourceDigest hashes the module's Go sources under root, so a result
// from a checkout without version control still names its code.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the process's peak resident set in MB (2^20 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail is the highest percentile of xs with at least ten samples beyond
// it, by nearest rank. ok is false below twenty samples, where that
// percentile would be under the median.
func tail(xs []float64) (v, percentile float64, ok bool) {
	n := len(xs)
	if n < 20 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct {
	t0     time.Time
	spans  []span
	parent int // the span new passes belong to
}

// span is one timed step: its name, start and end in seconds since the
// process started, the span that contains it, and, for a job's spans, the
// id they share.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// add records a span; a zero end leaves it open until end is called.
func (l *spanLog) add(name string, parent, job int, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start.Sub(l.t0).Seconds()})
	if !end.IsZero() {
		l.end(id, end)
	}
	return id
}

func (l *spanLog) end(id int, end time.Time) { l.spans[id-1].End = end.Sub(l.t0).Seconds() }

// pass records one sweep: the pass, and for each job a unit span from
// queued to delivered with its queue wait, run, exports, verification and
// in-order delivery wait as children.
func (l *spanLog) pass(pr *passRun, jobs []job) {
	ps := l.add("pass", l.parent, 0, pr.start, pr.end)
	for i := range pr.runs {
		r := &pr.runs[i]
		if !r.done {
			continue
		}
		jobID := len(l.spans) + 1
		u := l.add("unit "+jobs[i].name, ps, jobID, pr.start, r.delivered)
		l.add("queued", u, jobID, pr.start, r.start)
		l.add("run", u, jobID, r.start, r.ran)
		if jobs[i].export {
			l.add("export.metrics", u, jobID, r.ran, r.metricsDone)
			l.add("export.trace", u, jobID, r.metricsDone, r.logDone)
		}
		l.add("verify", u, jobID, r.logDone, r.end)
		l.add("delivery_wait", u, jobID, r.end, r.delivered)
	}
}

func (l *spanLog) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
