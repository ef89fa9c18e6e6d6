package main

import (
	"fmt"
	"math/rand"

	"alm"
	"alm/internal/chaos"
	"alm/internal/faults"
	"alm/internal/topology"
)

// job is one simulated MapReduce job of a workload's pass.
type job struct {
	name    string
	spec    alm.JobSpec
	cluster alm.ClusterSpec
	opts    []alm.RunOption
	// export marks jobs whose metrics snapshot is exported as Prometheus
	// text and whose event log is rendered, as almrun users consume a run.
	export bool
	// ref indexes the pass's fault-free reference runs.
	ref int
}

// reference is the fault-free run of one job spec.
type reference struct {
	spec    alm.JobSpec
	cluster alm.ClusterSpec
}

// pass is everything one workload runs for one seed: its jobs, in sweep
// unit order, and the fault-free references their outputs are checked
// against.
type pass struct {
	jobs []job
	refs []reference
}

// addRef registers the fault-free reference for spec on cs.
func (p *pass) addRef(spec alm.JobSpec, cs alm.ClusterSpec) int {
	p.refs = append(p.refs, reference{spec: spec, cluster: cs})
	return len(p.refs) - 1
}

// workload is one benchmark input mix. build derives every spec, plan and
// schedule from the seed alone.
type workload struct {
	name    string
	workers int // sweep workers; 1 runs the pass serially
	build   func(seed int64) pass
}

var workloadList = []workload{
	{name: "table2_amplification", workers: 2, build: buildTable2},
	{name: "scale_400_nodes", workers: 1, build: buildScale},
	{name: "chaos_small_jobs", workers: 2, build: buildChaos},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// table2Seeds is how many engine seeds one table2 pass covers. Host time
// per job depends on where the failures land, so a pass averages over a
// few seeds' worth of the Table II matrix.
const table2Seeds = 4

// buildTable2 is the paper's Table II scenario at full scale: Terasort
// 100 GB with 20 reducers on the default 2×10 testbed, the network of a
// node holding map output but no reducer stopped at 10, 20 and 30 % of the
// reduce phase, under stock YARN and under ALM. Every job keeps its event
// log, metrics and a no-op observer, and is exported afterwards.
func buildTable2(seed int64) pass {
	rng := rand.New(rand.NewSource(seed))
	cs := alm.DefaultClusterSpec()
	var p pass
	for k := 0; k < table2Seeds; k++ {
		engineSeed := rng.Int63()
		for _, mode := range []alm.Mode{alm.ModeYARN, alm.ModeALM} {
			spec := alm.JobSpec{
				Workload:   alm.Terasort(),
				InputBytes: 100 << 30,
				NumReduces: 20,
				Mode:       mode,
				Seed:       engineSeed,
			}
			ref := p.addRef(spec, cs)
			for _, frac := range []float64{0.1, 0.2, 0.3} {
				plan := (&faults.Plan{}).Add(
					faults.Trigger{Kind: faults.AtReducePhaseProgress, Fraction: frac},
					faults.Action{Kind: faults.StopNodeNetwork, Selector: faults.NodeWithMOFsOnly},
				)
				p.jobs = append(p.jobs, job{
					name:    fmt.Sprintf("%v@%.0f%%", mode, frac*100),
					spec:    spec,
					cluster: cs,
					opts: []alm.RunOption{
						alm.WithFaults(plan), alm.WithMetrics(), alm.WithTrace(),
						alm.WithObserver(alm.ObserverFuncs{}),
					},
					export: true,
					ref:    ref,
				})
			}
		}
	}
	return p
}

// buildScale is one fault-free SFM Terasort on 20 racks of 20 nodes
// (oversubscription 5) with 800 maps and 40 reducers, run serially with
// the trace off: the thousand-node target sized to run for seconds.
func buildScale(seed int64) pass {
	rng := rand.New(rand.NewSource(seed))
	spec := alm.JobSpec{
		Workload:   alm.Terasort(),
		InputBytes: 800 * 128 << 20,
		NumReduces: 40,
		Mode:       alm.ModeSFM,
		Seed:       rng.Int63(),
	}
	cs := alm.ClusterSpec{
		Racks:            20,
		NodesPerRack:     20,
		HW:               topology.DefaultHardware(),
		Oversubscription: 5,
	}
	var p pass
	ref := p.addRef(spec, cs)
	p.jobs = append(p.jobs, job{
		name:    "sfm-400",
		spec:    spec,
		cluster: cs,
		opts:    []alm.RunOption{alm.WithMetrics()},
		ref:     ref,
	})
	return p
}

// chaosSeeds is how many chaos schedules one pass covers; each yields six
// jobs (four local modes, two remote-shuffle modes).
const chaosSeeds = 96

// buildChaos mirrors the chaos harness's runs without its invariant
// checks: the paper testbed, 8 maps and 4 reducers, MaxTaskAttempts 8, the
// workload rotating with the chaos seed. Each chaos seed contributes its
// generated schedule under the four local modes and its tier-fault
// schedule under YARN and ALM with the remote shuffle tier.
func buildChaos(seed int64) pass {
	rng := rand.New(rand.NewSource(seed))
	sh, cs := chaos.CheckShape()
	wls := []*alm.Workload{alm.Terasort(), alm.Wordcount(), alm.Secondarysort()}
	conf := alm.DefaultConfig()
	conf.MaxTaskAttempts = 8
	var p pass
	add := func(cseed int64, mode alm.Mode, remote bool, sched chaos.Schedule) {
		spec := alm.JobSpec{
			Workload:   wls[cseed%3],
			InputBytes: int64(sh.Maps) * conf.BlockSizeBytes,
			NumReduces: sh.Reduces,
			Conf:       conf,
			Mode:       mode,
			Seed:       cseed,
		}
		name := mode.String()
		if remote {
			spec.Shuffle.Remote = true
			spec.Shuffle.TierNodes = chaos.RemoteTierNodes
			name += "+remote"
		}
		p.jobs = append(p.jobs, job{
			name:    name,
			spec:    spec,
			cluster: cs,
			opts:    []alm.RunOption{alm.WithFaults(sched.Plan()), alm.WithMetrics()},
			ref:     p.addRef(spec, cs),
		})
	}
	for k := 0; k < chaosSeeds; k++ {
		// The workload is the chaos seed mod 3; give each workload the same
		// number of seeds so a pass's mix does not vary with the seed.
		cseed := (rng.Int63()>>2)*3 + int64(k%3)
		sched := chaos.Generate(cseed, chaos.DefaultBudget(), sh)
		for _, mode := range chaos.Modes {
			add(cseed, mode, false, sched)
		}
		tierShape, tierBudget := sh, chaos.DefaultBudget()
		tierShape.TierNodes = chaos.RemoteTierNodes
		tierBudget.TierFaults = true
		tierSched := chaos.Generate(cseed, tierBudget, tierShape)
		for _, mode := range chaos.RemoteModes {
			add(cseed, mode, true, tierSched)
		}
	}
	return p
}
