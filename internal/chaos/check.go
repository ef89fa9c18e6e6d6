package chaos

import (
	"context"
	"fmt"
	"time"

	"alm/internal/engine"
	"alm/internal/faults"
	"alm/internal/metrics"
	"alm/internal/mr"
	"alm/internal/sweep"
	"alm/internal/trace"
	"alm/internal/workloads"
)

// Violation is one invariant failure for one (seed, mode) pair.
type Violation struct {
	Seed      int64
	Mode      engine.Mode
	Invariant string
	Detail    string
	// Remote marks a violation found under the remote-shuffle matrix
	// (CheckSeedRemote); the reproducer needs the -shuffle=remote flag.
	Remote bool
}

func (v Violation) String() string {
	mode := v.Mode.String()
	if v.Remote {
		mode += "+remote"
	}
	return fmt.Sprintf("seed=%d mode=%s invariant=%s: %s", v.Seed, mode, v.Invariant, v.Detail)
}

// Reproducer returns the command line that replays exactly this seed.
func (v Violation) Reproducer() string {
	if v.Remote {
		return fmt.Sprintf("go run ./cmd/almrun -chaos -shuffle=remote -seed %d -seeds 1", v.Seed)
	}
	return fmt.Sprintf("go run ./cmd/almrun -chaos -seed %d -seeds 1", v.Seed)
}

// Modes is the full mode matrix every schedule is checked under.
var Modes = []engine.Mode{engine.ModeYARN, engine.ModeALG, engine.ModeSFM, engine.ModeALM}

// RemoteModes is the pair the remote-shuffle tier matrix runs under:
// stock retry versus the full ALM stack, both with MOFs pushed to the
// tier.
var RemoteModes = []engine.Mode{engine.ModeYARN, engine.ModeALM}

// matrix is the mode matrix a seed is checked under.
func matrix(remote bool) []engine.Mode {
	if remote {
		return RemoteModes
	}
	return Modes
}

// RemoteTierNodes is the tier size remote chaos runs use (mirrors the
// engine's ShuffleOptions default so generated ordinals stay in range).
const RemoteTierNodes = 3

// CheckShape is the fixed small job/cluster geometry chaos runs use:
// the paper's 2×10 testbed, 8 map splits (1 GiB at the default 128 MB
// block size), 4 reducers.
func CheckShape() (Shape, engine.ClusterSpec) {
	cs := engine.DefaultClusterSpec()
	cs.MaxVirtualTime = 2 * time.Hour
	return Shape{
		Nodes:   cs.Racks * cs.NodesPerRack,
		Racks:   cs.Racks,
		Maps:    8,
		Reduces: 4,
	}, cs
}

// specFor builds the job spec for one (seed, mode) run. The workload
// rotates with the seed so all three benchmarks see chaos. MaxTaskAttempts
// is raised from the stock 4: a compound schedule can legitimately charge
// a task several attempt failures (an injected kill plus strandings on
// partitioned nodes) without anything being wrong, and the invariants
// under test are about amplification and recovery, not the attempt cap.
// A shape with tier nodes enables the remote shuffle tier, sized to the
// shape the generator drew ordinals from.
func specFor(seed int64, mode engine.Mode, sh Shape) engine.JobSpec {
	wls := []*workloads.Workload{workloads.Terasort(), workloads.Wordcount(), workloads.Secondarysort()}
	conf := mr.DefaultConfig()
	conf.MaxTaskAttempts = 8
	spec := engine.JobSpec{
		Workload:   wls[int(((seed%3)+3)%3)],
		InputBytes: int64(sh.Maps) * conf.BlockSizeBytes,
		NumReduces: sh.Reduces,
		Conf:       conf,
		Mode:       mode,
		Seed:       seed,
	}
	spec.Shuffle.Remote = sh.TierNodes > 0
	spec.Shuffle.TierNodes = sh.TierNodes
	return spec
}

// runOne executes one job, converting an engine invariant panic (armed
// via engine.EnableInvariantChecks) into an error instead of killing the
// whole sweep. conservationErr carries the post-run cluster accounting
// check.
func runOne(spec engine.JobSpec, cs engine.ClusterSpec, plan *faults.Plan) (res engine.Result, tierPending int, conservationErr, runErr error) {
	defer func() {
		if r := recover(); r != nil {
			runErr = fmt.Errorf("engine panic: %v", r)
		}
	}()
	var h engine.Handles
	res, err := engine.Run(spec, cs, engine.WithPlan(plan), engine.WithHandles(&h))
	if err != nil {
		return res, 0, nil, err
	}
	if h.Job != nil {
		if tier := h.Job.Tier(); tier != nil {
			tierPending = tier.PendingRecovery()
		}
	}
	return res, tierPending, h.Cluster.CheckConservation(), nil
}

func sameOutput(a, b []mr.Record) bool {
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

// CheckSeed generates the schedule for one seed and verifies every
// invariant under every mode: three runs per mode (failure-free
// baseline, chaos, chaos again for determinism). It returns all
// violations found (nil means the seed is clean). reg, when non-nil,
// accumulates sweep metrics (runs per mode, violations per invariant).
func CheckSeed(seed int64, budget Budget, reg *metrics.Registry) []Violation {
	engine.EnableInvariantChecks()
	vs := checkSeed(seed, budget, false)
	applySeedMetrics(reg, false, vs)
	return vs
}

// CheckSeedRemote is CheckSeed's counterpart for the remote-shuffle
// tier: the generated schedule additionally draws tier-service crashes
// and hot partitions, and each run asserts the tier's own invariants on
// top of the usual ones — every obligation the tier accepted is repaired
// (re-replicated or re-pushed) before the job completes, and under a
// single dark node with no tier crash a map-node loss causes zero map
// recomputation, because delivered MOFs live in the tier.
func CheckSeedRemote(seed int64, budget Budget, reg *metrics.Registry) []Violation {
	engine.EnableInvariantChecks()
	vs := checkSeed(seed, budget, true)
	applySeedMetrics(reg, true, vs)
	return vs
}

// checkSeed is the pure core of CheckSeed (remote false) and
// CheckSeedRemote (remote true): no registry writes, no global toggles —
// safe to fan out across sweep workers. Metrics are derived from its
// return value afterwards (applySeedMetrics), in seed order, so a
// parallel sweep's registry snapshot is byte-identical to serial.
func checkSeed(seed int64, budget Budget, remote bool) []Violation {
	sh, cs := CheckShape()
	if remote {
		sh.TierNodes = RemoteTierNodes
		budget.TierFaults = true
	}
	sched := Generate(seed, budget, sh)
	var vs []Violation
	add := func(mode engine.Mode, invariant, detail string) {
		vs = append(vs, Violation{Seed: seed, Mode: mode, Invariant: invariant, Detail: detail, Remote: remote})
	}

	for _, mode := range matrix(remote) {
		spec := specFor(seed, mode, sh)

		base, _, baseCons, err := runOne(spec, cs, nil)
		if err != nil {
			add(mode, "baseline-run", err.Error())
			continue
		}
		if !base.Completed {
			add(mode, "baseline-termination", base.FailReason)
			continue
		}
		if baseCons != nil {
			add(mode, "conservation", "baseline: "+baseCons.Error())
		}

		res, pending, cons, err := runOne(spec, cs, sched.Plan())
		if err != nil {
			add(mode, "chaos-run", err.Error())
			continue
		}
		if !res.Completed {
			add(mode, "termination", fmt.Sprintf("job did not complete: %s", res.FailReason))
			continue
		}
		if cons != nil {
			add(mode, "conservation", cons.Error())
		}
		if !sameOutput(res.Output, base.Output) {
			add(mode, "output-identity", fmt.Sprintf(
				"recovered output differs from failure-free run (%d vs %d records)",
				len(res.Output), len(base.Output)))
		}
		// Without a tier nothing is ever owed, so pending is 0 locally.
		if pending != 0 {
			add(mode, "tier-recovery", fmt.Sprintf(
				"%d tier segments still owed at job end: a killed tier node's "+
					"storage was neither re-replicated nor re-pushed", pending))
		}
		// Local schedules draw no tier faults (sh.TierNodes is 0), so the
		// tier-crash guard below only ever bites on the remote matrix.
		singleDark := sched.SingleDark() && !sched.HasTierCrash()
		if remote && singleDark {
			if n := res.Trace.Count(trace.KindMapRescheduled); n != 0 {
				add(mode, "no-map-recompute", fmt.Sprintf(
					"%d completed maps recomputed although their MOFs were safe in the tier", n))
			}
		}
		if mode.SFMEnabled() && singleDark && res.AdditionalReduceFailures != 0 {
			add(mode, "no-amplification", fmt.Sprintf(
				"%d healthy reducers infected under a single-failure schedule",
				res.AdditionalReduceFailures))
		}
		if !remote && sched.AllHealFast(healFastLimit(spec.Conf)) && sched.CrashCount() == 0 {
			if n := res.Trace.Count(trace.KindNodeDetected); n != 0 {
				add(mode, "no-lost-nodes", fmt.Sprintf(
					"%d nodes declared lost although every fault heals before the liveness timer", n))
			}
		}

		res2, _, _, err := runOne(spec, cs, sched.Plan())
		if err != nil {
			add(mode, "determinism", "repeat run failed: "+err.Error())
			continue
		}
		switch {
		case res2.Duration != res.Duration:
			add(mode, "determinism", fmt.Sprintf("durations differ: %v vs %v", res.Duration, res2.Duration))
		case res2.Events.Processed != res.Events.Processed:
			add(mode, "determinism", fmt.Sprintf("event counts differ: %d vs %d", res.Events.Processed, res2.Events.Processed))
		case !sameOutput(res2.Output, res.Output):
			add(mode, "determinism", "outputs differ between identical runs")
		case res2.FetchRetries != res.FetchRetries:
			add(mode, "determinism", fmt.Sprintf("fetch retries differ: %d vs %d", res.FetchRetries, res2.FetchRetries))
		}
	}
	return vs
}

// healFastLimit is the largest HealAfter that provably beats the
// liveness timer: the node must heal and get a heartbeat in before
// NodeExpiry elapses since its last pre-fault heartbeat (worst case one
// full heartbeat interval before the fault, plus one after the heal).
func healFastLimit(conf mr.Config) time.Duration {
	return conf.NodeExpiry - 3*conf.HeartbeatInterval
}

// applySeedMetrics replays one seed's sweep counters into reg. Counter
// finals are sums and snapshots are key-sorted, so applying the
// increments here — in seed order, on the sweep's delivery goroutine —
// produces the same registry state as the historical serial loop that
// interleaved them with the runs. reg may be nil (all handles are
// nil-safe no-ops).
func applySeedMetrics(reg *metrics.Registry, remote bool, bad []Violation) {
	for _, mode := range matrix(remote) {
		name := mode.String()
		if remote {
			name += "+remote"
		}
		reg.Counter("alm_chaos_runs_total", "mode", name).Add(3)
	}
	for _, v := range bad {
		reg.Counter("alm_chaos_violations_total", "invariant", v.Invariant).Inc()
	}
	reg.Counter("alm_chaos_seeds_total").Inc()
}

// CheckSeeds sweeps n consecutive seeds starting at first across
// workers parallel engines (<= 0: one per CPU), invoking report after
// each seed in seed order (for progress output; may be nil). It returns
// all violations, in seed order. reg, when non-nil, accumulates sweep
// metrics; its final snapshot does not depend on the worker count.
func CheckSeeds(first int64, n int, budget Budget, workers int, reg *metrics.Registry, report func(seed int64, bad []Violation)) []Violation {
	return sweepSeeds(first, n, budget, workers, false, reg, report)
}

// CheckSeedsRemote is CheckSeeds over the remote-shuffle matrix.
func CheckSeedsRemote(first int64, n int, budget Budget, workers int, reg *metrics.Registry, report func(seed int64, bad []Violation)) []Violation {
	return sweepSeeds(first, n, budget, workers, true, reg, report)
}

// sweepSeeds fans the per-seed checks over the shared sweep scheduler.
// The invariant toggle is flipped once, before any worker spawns, so
// engine goroutines only ever read it; violations land in per-seed
// indexed slots and both metrics application and progress reporting
// happen at ordered delivery time.
func sweepSeeds(first int64, n int, budget Budget, workers int, remote bool, reg *metrics.Registry, report func(seed int64, bad []Violation)) []Violation {
	engine.EnableInvariantChecks()
	if n < 0 {
		n = 0
	}
	per := make([][]Violation, n)
	sweep.Do(context.Background(), n, workers, func(i int) error {
		per[i] = checkSeed(first+int64(i), budget, remote)
		return nil
	}, func(i int, err error) {
		seed := first + int64(i)
		if err != nil {
			// A panic that escaped runOne's recovery (harness bug, not an
			// engine fault) — surface it as a violation instead of dying.
			per[i] = append(per[i], Violation{
				Seed: seed, Mode: matrix(remote)[0], Invariant: "sweep-harness",
				Detail: err.Error(), Remote: remote,
			})
		}
		applySeedMetrics(reg, remote, per[i])
		if report != nil {
			report(seed, per[i])
		}
	})
	var all []Violation
	for _, vs := range per {
		all = append(all, vs...)
	}
	return all
}
