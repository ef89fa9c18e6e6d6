package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"alm/internal/cluster"
	"alm/internal/faults"
	"alm/internal/sim"
	"alm/internal/topology"
)

// ErrCanceled is returned (wrapping ctx.Err()) when the context
// installed with WithContext is canceled before the job finishes. The
// event loop polls the context at event boundaries, so the run aborts
// within a bounded number of events of the cancellation.
var ErrCanceled = errors.New("engine: run canceled")

// ctxPollEvents is how many fired events may elapse between context
// polls — small enough that cancellation lands promptly, large enough
// that the per-event cost is one modulo and a nil check.
const ctxPollEvents = 256

// ClusterSpec describes the simulated testbed. The default mirrors the
// paper: 20 worker nodes (the paper's 21st node is the dedicated
// ResourceManager/NameNode, which the simulation models implicitly) with
// SSDs and 10 GbE, in two racks.
type ClusterSpec struct {
	Racks            int
	NodesPerRack     int
	HW               topology.Hardware
	Oversubscription float64
	// MaxVirtualTime aborts runs that exceed this much simulated time
	// (deadlock guard). Zero means 6 hours.
	MaxVirtualTime time.Duration
	// MaxEvents aborts runaway simulations. Zero means 50 million.
	MaxEvents uint64
}

// DefaultClusterSpec returns the paper-testbed layout.
func DefaultClusterSpec() ClusterSpec {
	return ClusterSpec{
		Racks:            2,
		NodesPerRack:     10,
		HW:               topology.DefaultHardware(),
		Oversubscription: 5,
	}
}

// RunOptions collects everything optional about a run. Zero value plus
// defaults() is a fault-free, trace-attached, unobserved run.
type RunOptions struct {
	// Plan injects faults during the run (nil = fault-free).
	Plan *faults.Plan
	// Observer streams events, progress samples and metrics deltas in
	// deterministic sim-time order while the job runs.
	Observer Observer
	// CollectMetrics attaches the final metrics snapshot to
	// Result.Metrics. Metrics are always gathered internally (the cost is
	// a few map lookups per event); this only controls exposure.
	CollectMetrics bool
	// AttachTrace keeps Result.Trace populated. Engine-level callers get
	// it by default (tests inspect traces heavily); the public facade
	// flips the default and re-enables it via alm.WithTrace.
	AttachTrace bool
	// Handles, when non-nil, is filled with the run's live control-plane
	// objects so callers can audit post-run state (the chaos harness
	// checks cluster resource-conservation invariants).
	Handles *Handles
	// Ctx, when non-nil, is polled at event-loop boundaries; once it is
	// canceled Run aborts and returns its error wrapped in ErrCanceled.
	Ctx context.Context
	// Queue selects the sim event-queue backend. The zero value is the
	// timing wheel (sim.QueueWheel). Both backends fire events in
	// identical (at, seq) order, so results are byte-identical either
	// way; the heap exists as the reference for the queue-parity tests.
	Queue sim.QueueKind
}

// RunOption mutates RunOptions; pass them to Run.
type RunOption func(*RunOptions)

// WithPlan injects the given fault plan.
func WithPlan(plan *faults.Plan) RunOption {
	return func(o *RunOptions) { o.Plan = plan }
}

// WithObserver streams run activity to obs.
func WithObserver(obs Observer) RunOption {
	return func(o *RunOptions) { o.Observer = obs }
}

// WithMetrics attaches the final metrics snapshot to Result.Metrics.
func WithMetrics() RunOption {
	return func(o *RunOptions) { o.CollectMetrics = true }
}

// WithTrace keeps the full trace collector on Result.Trace.
func WithTrace() RunOption {
	return func(o *RunOptions) { o.AttachTrace = true }
}

// WithoutTrace drops the trace from the Result. The facade uses it to
// invert the engine default so traces are opt-in for public callers.
func WithoutTrace() RunOption {
	return func(o *RunOptions) { o.AttachTrace = false }
}

// WithHandles fills h with the run's cluster, job and event engine.
func WithHandles(h *Handles) RunOption {
	return func(o *RunOptions) { o.Handles = h }
}

// WithContext bounds the run by ctx: the event loop polls it at event
// boundaries and Run returns ctx.Err() wrapped in ErrCanceled once it
// is canceled. A nil ctx means no bound.
func WithContext(ctx context.Context) RunOption {
	return func(o *RunOptions) { o.Ctx = ctx }
}

// WithQueue selects the sim event-queue backend for the run (see
// RunOptions.Queue).
func WithQueue(k sim.QueueKind) RunOption {
	return func(o *RunOptions) { o.Queue = k }
}

// Handles exposes a finished run's control-plane objects for audits.
type Handles struct {
	Cluster *cluster.Cluster
	Job     *Job
	Eng     *sim.Engine
}

// Run executes one job on a fresh simulated cluster and returns its
// result. It is the single entry point used by the facade, experiments,
// examples, the chaos harness and tests; everything optional — fault
// plans, observers, metrics exposure, post-run handles — arrives through
// functional options.
func Run(spec JobSpec, cs ClusterSpec, opts ...RunOption) (Result, error) {
	o := RunOptions{AttachTrace: true}
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	if cs.Racks == 0 {
		cs = DefaultClusterSpec()
	}
	if cs.MaxVirtualTime == 0 {
		cs.MaxVirtualTime = 6 * time.Hour
	}
	if cs.MaxEvents == 0 {
		cs.MaxEvents = 50_000_000
	}
	topo, err := topology.New(topology.Options{
		Racks:            cs.Racks,
		NodesPerRack:     cs.NodesPerRack,
		HW:               cs.HW,
		Oversubscription: cs.Oversubscription,
	})
	if err != nil {
		return Result{}, err
	}
	specD, err := spec.Defaulted()
	if err != nil {
		return Result{}, err
	}
	eng := sim.NewEngine(specD.Seed, sim.WithQueue(o.Queue))
	eng.SetMaxEvents(cs.MaxEvents)
	if o.Ctx != nil {
		if err := o.Ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		ctx := o.Ctx
		eng.SetInterrupt(ctxPollEvents, func() bool { return ctx.Err() != nil })
	}
	cl := cluster.New(eng, topo, cluster.Options{
		HeartbeatInterval: specD.Conf.HeartbeatInterval,
		NodeExpiry:        specD.Conf.NodeExpiry,
	})
	// The engine consumes injection state (Done/Fired) as the run
	// progresses; clone so the caller's plan stays reusable across runs.
	job, err := NewJob(specD, cl, o.Plan.Clone())
	if err != nil {
		return Result{}, err
	}
	job.SetObserver(o.Observer)
	if err := job.Start(func() { eng.Stop() }); err != nil {
		return Result{}, err
	}
	eng.Run(sim.Time(cs.MaxVirtualTime))
	if o.Ctx != nil {
		if err := o.Ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
	}
	job.finalizeMetrics(eng)
	res := job.Result()
	res.Events = EventStats{
		Processed: eng.Processed(),
		MaxQueue:  eng.MaxQueueLen(),
		Stopped:   eng.StoppedEvents(),
	}
	if !job.Finished() {
		res.Failed = true
		res.FailReason = fmt.Sprintf("job did not finish within %v of virtual time", cs.MaxVirtualTime)
		res.Duration = cs.MaxVirtualTime
	}
	if o.CollectMetrics {
		res.Metrics = job.MetricsSnapshot()
	}
	if !o.AttachTrace {
		res.Trace = nil
	}
	if o.Handles != nil {
		*o.Handles = Handles{Cluster: cl, Job: job, Eng: eng}
	}
	return res, nil
}
