package fairshare

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"alm/internal/sim"
)

// Differential tester: drive the allocator and the reference (the scan
// allocator in reference_test.go) through the same randomized script of
// StartFlow / Cancel / SetCapacity / SetPriorityCap / Run operations,
// each on its own engine, and assert bit-identical behaviour after every
// operation: every live flow's rate and remaining bytes, per-port and
// per-system flow counts, the virtual clock, and the sequence of
// completion callbacks with their times.
//
// Every port and flow name is distinct, so no two ports tie on (share,
// name): the reference settles such a tie in map order, the allocator
// by creation order. Capacities come from a small grid so equal shares
// — settled by name — are common.

// driver is one allocator under test, addressed by the script's port
// and flow indexes.
type driver interface {
	newPort(name string, capacity float64)
	startFlow(name string, bytes int64, ports []int, maxRate float64, done func())
	cancel(flow int)
	setPriorityCap(flow int, rate float64)
	setCapacity(port int, capacity float64)
	// flow reports a flow's state without advancing the system.
	flow(i int) (rate, remaining float64, live bool)
	portFlows(port int) int
	activeFlows() int
	view() allocView
}

type heapDriver struct {
	s     *System
	ports []*Port
	flows []*Flow
}

func (d *heapDriver) newPort(name string, c float64) { d.ports = append(d.ports, d.s.NewPort(name, c)) }
func (d *heapDriver) startFlow(name string, bytes int64, ports []int, maxRate float64, done func()) {
	sel := make([]*Port, len(ports))
	for i, p := range ports {
		sel[i] = d.ports[p]
	}
	d.flows = append(d.flows, d.s.StartFlow(name, bytes, sel, maxRate, done))
}
func (d *heapDriver) cancel(i int)                    { d.flows[i].Cancel() }
func (d *heapDriver) setPriorityCap(i int, r float64) { d.flows[i].SetPriorityCap(r) }
func (d *heapDriver) setCapacity(p int, c float64)    { d.ports[p].SetCapacity(c) }
func (d *heapDriver) portFlows(p int) int             { return d.ports[p].ActiveFlows() }
func (d *heapDriver) activeFlows() int                { return d.s.ActiveFlows() }
func (d *heapDriver) view() allocView                 { return viewOf(d.flows) }
func (d *heapDriver) flow(i int) (float64, float64, bool) {
	f := d.flows[i]
	return f.rate, f.remaining, !f.finished && !f.canceled
}

type refDriver struct {
	s     *refSystem
	ports []*refPort
	flows []*refFlow
}

func (d *refDriver) newPort(name string, c float64) { d.ports = append(d.ports, d.s.NewPort(name, c)) }
func (d *refDriver) startFlow(name string, bytes int64, ports []int, maxRate float64, done func()) {
	sel := make([]*refPort, len(ports))
	for i, p := range ports {
		sel[i] = d.ports[p]
	}
	d.flows = append(d.flows, d.s.StartFlow(name, bytes, sel, maxRate, done))
}
func (d *refDriver) cancel(i int)                    { d.flows[i].Cancel() }
func (d *refDriver) setPriorityCap(i int, r float64) { d.flows[i].SetPriorityCap(r) }
func (d *refDriver) setCapacity(p int, c float64)    { d.ports[p].SetCapacity(c) }
func (d *refDriver) portFlows(p int) int             { return d.ports[p].ActiveFlows() }
func (d *refDriver) activeFlows() int                { return d.s.ActiveFlows() }
func (d *refDriver) view() allocView                 { return refViewOf(d.flows) }
func (d *refDriver) flow(i int) (float64, float64, bool) {
	f := d.flows[i]
	return f.rate, f.remaining, !f.finished && !f.canceled
}

const (
	fopStart = iota
	fopCancel
	fopSetCapacity
	fopSetPriorityCap
	fopRun     // Run(now + delay)
	fopRunNext // Step: run to the next completion
	fopNewPort // create a port mid-run
)

type flowOp struct {
	kind  int
	flow  int    // cancel / set-priority-cap target
	port  int    // set-capacity target
	name  string // new port's name
	ports []int
	bytes int64
	rate  float64 // maxRate, priority cap or capacity
	delay sim.Time
}

// flowCapGrid holds the port capacities and rate caps a script draws
// from: few distinct values, so equal fair shares are common.
var flowCapGrid = []float64{100, 250, 1000, 1000, 1250, 4000}

var flowDelays = []sim.Time{0, time.Millisecond, 100 * time.Millisecond, time.Second, 5 * time.Second, 30 * time.Second}

// genFlowScript draws ops operations over nPorts ports named p000,
// p001, …; up to nPorts/4+2 ports created mid-run (as task attempts
// create theirs) take a name that sorts between two of those. A few
// "uplink" ports (the first min(8, nPorts)) are crossed by half of all
// flows so bottlenecks are contended, as rack uplinks are under
// cross-rack shuffle. caps returns every port's initial capacity, the
// mid-run ones included.
func genFlowScript(rng *rand.Rand, ops, nPorts int) (caps []float64, script []flowOp) {
	caps = make([]float64, nPorts)
	for i := range caps {
		caps[i] = flowCapGrid[rng.Intn(len(flowCapGrid))]
	}
	initial, maxPorts := nPorts, nPorts+nPorts/4+2
	hot := min(8, nPorts)
	// Flow sizes grow with the port count so that large scripts keep on
	// the order of a hundred flows in flight, as a 400-node shuffle does.
	maxBytes := int64(4_000 * (1 + nPorts/200))
	pick := func() int {
		if rng.Intn(2) == 0 {
			return rng.Intn(hot)
		}
		return rng.Intn(nPorts)
	}
	flows := 0
	// recent picks one of the last 100 flows started, most of which are
	// still in flight.
	recent := func() int { return flows - 1 - rng.Intn(min(flows, 100)) }
	var down []int // ports set to zero capacity and not yet restored
	script = make([]flowOp, 0, ops)
	for len(script) < ops {
		var op flowOp
		switch r := rng.Intn(100); {
		case r < 35:
			op.kind = fopStart
			k := rng.Intn(5) // 0..4 listed ports; 0 is unconstrained unless capped
			for j := 0; j < k; j++ {
				op.ports = append(op.ports, pick())
			}
			if k > 0 && rng.Intn(6) == 0 {
				// A repeated crossing, as a pipelined replica write has.
				op.ports = append(op.ports, op.ports[rng.Intn(k)])
			}
			if rng.Intn(10) > 0 {
				op.bytes = rng.Int63n(maxBytes) + 1
			}
			if rng.Intn(4) == 0 {
				op.rate = flowCapGrid[rng.Intn(len(flowCapGrid))] / 4
			}
			flows++
		case r < 45:
			if flows == 0 {
				continue
			}
			op.kind, op.flow = fopCancel, recent()
		case r < 60:
			op.kind = fopSetCapacity
			// Ports go down and come back: half of the capacity changes
			// restore a down port, the rest take a random port down or
			// move its capacity.
			if len(down) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(down))
				op.port, op.rate = down[i], caps[down[i]]
				down = append(down[:i], down[i+1:]...)
				break
			}
			op.port = rng.Intn(nPorts)
			if rng.Intn(3) == 0 && !slices.Contains(down, op.port) {
				op.rate = 0
				down = append(down, op.port)
			} else {
				op.rate = flowCapGrid[rng.Intn(len(flowCapGrid))]
			}
		case r < 72:
			if flows == 0 {
				continue
			}
			op.kind, op.flow = fopSetPriorityCap, recent()
			switch rng.Intn(3) {
			case 0:
				op.rate = 0 // remove
			case 1:
				op.rate = -1 // remove
			default:
				op.rate = flowCapGrid[rng.Intn(len(flowCapGrid))] / 2 // add or change
			}
		case r < 87:
			op.kind, op.delay = fopRun, flowDelays[rng.Intn(len(flowDelays))]
		case r < 98:
			op.kind = fopRunNext
		default:
			if nPorts == maxPorts {
				continue
			}
			op.kind, op.port, op.rate = fopNewPort, nPorts, flowCapGrid[rng.Intn(len(flowCapGrid))]
			op.name = fmt.Sprintf("p%03d+%d", rng.Intn(initial), nPorts)
			caps = append(caps, op.rate)
			nPorts++
		}
		script = append(script, op)
	}
	return caps, script
}

type completion struct {
	flow int
	at   sim.Time
}

// flowDiff is one script's pair of allocators and what they reported.
type flowDiff struct {
	got            *heapDriver
	ref            *refDriver
	eGot, eRef     *sim.Engine
	logGot, logRef []completion
	checked        int   // completions already compared
	live           []int // flows live at the last comparison
}

// runFlowDiff plays one script on both allocators and fails at the first
// divergence. Every checkEvery operations it also checks the allocator's
// rates for max-min optimality and its slabs for consistency.
func runFlowDiff(t *testing.T, seed int64, ops, nPorts, checkEvery int) {
	t.Helper()
	caps, script := genFlowScript(rand.New(rand.NewSource(seed)), ops, nPorts)
	d := &flowDiff{eGot: sim.NewEngine(seed), eRef: sim.NewEngine(seed)}
	d.got, d.ref = &heapDriver{s: NewSystem(d.eGot)}, &refDriver{s: newRefSystem(d.eRef)}
	for i, c := range caps[:nPorts] {
		name := fmt.Sprintf("p%03d", i)
		d.got.newPort(name, c)
		d.ref.newPort(name, c)
	}
	flows := 0
	for n, op := range script {
		switch op.kind {
		case fopStart:
			id := flows
			flows++
			name := fmt.Sprintf("f%d", id)
			d.got.startFlow(name, op.bytes, op.ports, op.rate, func() { d.logGot = append(d.logGot, completion{id, d.eGot.Now()}) })
			d.ref.startFlow(name, op.bytes, op.ports, op.rate, func() { d.logRef = append(d.logRef, completion{id, d.eRef.Now()}) })
			d.live = append(d.live, id)
		case fopCancel:
			d.got.cancel(op.flow)
			d.ref.cancel(op.flow)
		case fopSetCapacity:
			d.got.setCapacity(op.port, op.rate)
			d.ref.setCapacity(op.port, op.rate)
		case fopSetPriorityCap:
			d.got.setPriorityCap(op.flow, op.rate)
			d.ref.setPriorityCap(op.flow, op.rate)
		case fopRun:
			d.eGot.Run(d.eGot.Now() + op.delay)
			d.eRef.Run(d.eRef.Now() + op.delay)
		case fopRunNext:
			if a, b := d.eGot.Step(), d.eRef.Step(); a != b {
				t.Fatalf("seed %d op %d: Step = %v, reference %v", seed, n, a, b)
			}
		case fopNewPort:
			d.got.newPort(op.name, op.rate)
			d.ref.newPort(op.name, op.rate)
		}
		if err := d.compare(); err != nil {
			t.Fatalf("seed %d op %d (%+v): %v", seed, n, op, err)
		}
		if n%checkEvery == 0 {
			if err := checkMaxMin(d.got.view()); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, n, err)
			}
			if err := slabErr(d.got.s); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, n, err)
			}
		}
	}
	d.eGot.RunAll()
	d.eRef.RunAll()
	if err := d.compare(); err != nil {
		t.Fatalf("seed %d after RunAll: %v", seed, err)
	}
}

// compare checks the two allocators' observable state and prunes flows
// that ended from live.
func (d *flowDiff) compare() error {
	if d.eGot.Now() != d.eRef.Now() {
		return fmt.Errorf("clock %v, reference %v", d.eGot.Now(), d.eRef.Now())
	}
	if len(d.logGot) != len(d.logRef) {
		return fmt.Errorf("%d completions, reference %d", len(d.logGot), len(d.logRef))
	}
	for i := d.checked; i < len(d.logGot); i++ {
		if d.logGot[i] != d.logRef[i] {
			return fmt.Errorf("completion %d: %+v, reference %+v", i, d.logGot[i], d.logRef[i])
		}
	}
	d.checked = len(d.logGot)
	if a, b := d.got.activeFlows(), d.ref.activeFlows(); a != b {
		return fmt.Errorf("%d active flows, reference %d", a, b)
	}
	kept := d.live[:0]
	for _, id := range d.live {
		r1, rem1, l1 := d.got.flow(id)
		r2, rem2, l2 := d.ref.flow(id)
		if l1 != l2 {
			return fmt.Errorf("flow %d: live %v, reference %v", id, l1, l2)
		}
		if math.Float64bits(r1) != math.Float64bits(r2) {
			return fmt.Errorf("flow %d: rate %v (%#x), reference %v (%#x)", id, r1, math.Float64bits(r1), r2, math.Float64bits(r2))
		}
		if math.Float64bits(rem1) != math.Float64bits(rem2) {
			return fmt.Errorf("flow %d: remaining %v, reference %v", id, rem1, rem2)
		}
		if l1 {
			kept = append(kept, id)
		}
	}
	d.live = kept
	for p := range d.got.ports {
		if a, b := d.got.portFlows(p), d.ref.portFlows(p); a != b {
			return fmt.Errorf("port %d: %d flows, reference %d", p, a, b)
		}
	}
	return nil
}

// TestFlowDifferential is the `make flow-diff` gate: three fixed seeds
// of 100k operations each, over 2, 60 and 600 ports.
func TestFlowDifferential(t *testing.T) {
	ops := 100_000
	if testing.Short() {
		ops = 10_000
	}
	for _, tc := range []struct {
		seed   int64
		nPorts int
	}{{11, 2}, {28, 60}, {42, 600}} {
		tc := tc
		t.Run(fmt.Sprintf("seed%d-ports%d", tc.seed, tc.nPorts), func(t *testing.T) {
			t.Parallel()
			runFlowDiff(t, tc.seed, ops, tc.nPorts, 97)
		})
	}
}

// TestFlowDifferentialManySeeds sweeps short scripts over port counts
// drawn from 2–600: breadth over depth.
func TestFlowDifferentialManySeeds(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		nPorts := 2 + rand.New(rand.NewSource(seed)).Intn(599)
		runFlowDiff(t, seed, 1500, nPorts, 1)
	}
}
