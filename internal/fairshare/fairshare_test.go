package fairshare

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"alm/internal/sim"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowThroughput(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("disk", 100) // 100 B/s
	var doneAt sim.Time = -1
	s.StartFlow("f", 1000, []*Port{p}, 0, func() { doneAt = e.Now() })
	e.RunAll()
	if doneAt < 0 {
		t.Fatal("flow never completed")
	}
	if !almostEqual(doneAt.Seconds(), 10, 0.01) {
		t.Fatalf("completion at %v, want ~10s", doneAt)
	}
}

func TestTwoFlowsShareEqually(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 100)
	var d1, d2 sim.Time
	s.StartFlow("a", 500, []*Port{p}, 0, func() { d1 = e.Now() })
	s.StartFlow("b", 500, []*Port{p}, 0, func() { d2 = e.Now() })
	e.RunAll()
	// Both share 100 B/s -> 50 each -> 10 s each.
	if !almostEqual(d1.Seconds(), 10, 0.05) || !almostEqual(d2.Seconds(), 10, 0.05) {
		t.Fatalf("completions %v %v, want ~10s each", d1, d2)
	}
}

func TestShortFlowFreesBandwidth(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 100)
	var dLong sim.Time
	s.StartFlow("long", 1000, []*Port{p}, 0, func() { dLong = e.Now() })
	s.StartFlow("short", 100, []*Port{p}, 0, nil)
	e.RunAll()
	// Short: 100 bytes at 50 B/s -> finishes at 2s having moved the long
	// flow 100 bytes. Long then runs at 100 B/s for the remaining 900
	// bytes -> total 2 + 9 = 11s.
	if !almostEqual(dLong.Seconds(), 11, 0.05) {
		t.Fatalf("long flow completed at %v, want ~11s", dLong)
	}
}

func TestMinOfTwoPorts(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	src := s.NewPort("src", 1000)
	dst := s.NewPort("dst", 100)
	var d sim.Time
	s.StartFlow("f", 1000, []*Port{src, dst}, 0, func() { d = e.Now() })
	e.RunAll()
	if !almostEqual(d.Seconds(), 10, 0.05) {
		t.Fatalf("completion at %v, want ~10s (limited by dst)", d)
	}
}

func TestMaxRateCap(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 1000)
	var d sim.Time
	s.StartFlow("f", 1000, []*Port{p}, 100, func() { d = e.Now() })
	e.RunAll()
	if !almostEqual(d.Seconds(), 10, 0.05) {
		t.Fatalf("completion at %v, want ~10s (capped)", d)
	}
}

func TestMaxMinFairness(t *testing.T) {
	// Classic example: flows A (port1 only), B (port1+port2), C (port2
	// only). port1 = 100, port2 = 30. Max-min: B and C share port2 at 15
	// each; A gets the rest of port1 = 85.
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p1 := s.NewPort("p1", 100)
	p2 := s.NewPort("p2", 30)
	fa := s.StartFlow("a", 1e9, []*Port{p1}, 0, nil)
	fb := s.StartFlow("b", 1e9, []*Port{p1, p2}, 0, nil)
	fc := s.StartFlow("c", 1e9, []*Port{p2}, 0, nil)
	if !almostEqual(fa.Rate(), 85, 0.01) {
		t.Fatalf("rate(a) = %v, want 85", fa.Rate())
	}
	if !almostEqual(fb.Rate(), 15, 0.01) {
		t.Fatalf("rate(b) = %v, want 15", fb.Rate())
	}
	if !almostEqual(fc.Rate(), 15, 0.01) {
		t.Fatalf("rate(c) = %v, want 15", fc.Rate())
	}
	fa.Cancel()
	fb.Cancel()
	fc.Cancel()
}

func TestCancelDoesNotCallDone(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 100)
	called := false
	f := s.StartFlow("f", 1000, []*Port{p}, 0, func() { called = true })
	e.Run(time.Second)
	f.Cancel()
	e.RunAll()
	if called {
		t.Fatal("done callback ran for a canceled flow")
	}
	if !f.Canceled() || f.Done() {
		t.Fatalf("flow state: canceled=%v done=%v", f.Canceled(), f.Done())
	}
}

func TestPortDownStallsFlow(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 100)
	done := false
	f := s.StartFlow("f", 1000, []*Port{p}, 0, func() { done = true })
	e.Run(5 * time.Second) // 500 bytes moved
	p.SetCapacity(0)
	e.Run(100 * time.Second)
	if done {
		t.Fatal("flow completed through a dead port")
	}
	if !almostEqual(f.Remaining(), 500, 1) {
		t.Fatalf("remaining = %v, want ~500", f.Remaining())
	}
	p.SetCapacity(100)
	e.RunAll()
	if !done {
		t.Fatal("flow did not resume after port recovered")
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 100)
	done := false
	f := s.StartFlow("f", 0, []*Port{p}, 0, func() { done = true })
	if !f.Done() {
		t.Fatal("zero-byte flow should report done synchronously")
	}
	e.RunAll()
	if !done {
		t.Fatal("zero-byte flow callback did not run")
	}
}

func TestCapacityIncreaseSpeedsCompletion(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 100)
	var d sim.Time
	s.StartFlow("f", 2000, []*Port{p}, 0, func() { d = e.Now() })
	e.Run(5 * time.Second) // 500 bytes
	p.SetCapacity(1000)
	e.RunAll()
	// Remaining 1500 at 1000 B/s = 1.5s -> total 6.5s.
	if !almostEqual(d.Seconds(), 6.5, 0.05) {
		t.Fatalf("completion at %v, want ~6.5s", d)
	}
}

func TestSetPriorityCapMidFlight(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 1000)
	var d sim.Time
	f := s.StartFlow("f", 2000, []*Port{p}, 0, func() { d = e.Now() })
	e.Run(time.Second) // 1000 bytes at full speed
	f.SetPriorityCap(100)
	e.RunAll()
	// Remaining 1000 at 100 B/s = 10s -> total 11s.
	if !almostEqual(d.Seconds(), 11, 0.1) {
		t.Fatalf("completion at %v, want ~11s", d)
	}
}

// Property: with N equal flows on one port, each gets capacity/N and all
// complete at bytes*N/capacity.
func TestQuickEqualSharing(t *testing.T) {
	f := func(nFlows uint8, kb uint8) bool {
		n := int(nFlows%8) + 1
		bytes := int64(kb)*100 + 100
		e := sim.NewEngine(3)
		s := NewSystem(e)
		p := s.NewPort("nic", 1000)
		var completions []sim.Time
		for i := 0; i < n; i++ {
			s.StartFlow("f", bytes, []*Port{p}, 0, func() {
				completions = append(completions, e.Now())
			})
		}
		e.RunAll()
		if len(completions) != n {
			return false
		}
		want := float64(bytes) * float64(n) / 1000
		for _, c := range completions {
			if !almostEqual(c.Seconds(), want, want*0.01+0.001) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: on both the allocator and the reference, every allocation is
// max-min optimal (see checkMaxMin) — at the start, after a port goes
// down, after it comes back and after every completion. Port names
// repeat and a flow may list a port twice.
func TestQuickCapacityConservation(t *testing.T) {
	for _, impl := range []string{"heap", "reference"} {
		t.Run(impl, func(t *testing.T) {
			f := func(seed int64) bool {
				e := sim.NewEngine(seed)
				var d driver = &heapDriver{s: NewSystem(e)}
				if impl == "reference" {
					d = &refDriver{s: newRefSystem(e)}
				}
				rng := rand.New(rand.NewSource(seed))
				caps := make([]float64, 5)
				for i := range caps {
					caps[i] = float64(rng.Intn(900) + 100)
					d.newPort("p", caps[i])
				}
				for i := 0; i < 20; i++ {
					k := rng.Intn(3) + 1
					sel := make([]int, 0, k)
					for j := 0; j < k; j++ {
						sel = append(sel, rng.Intn(len(caps)))
					}
					maxRate := 0.0
					if rng.Intn(4) == 0 {
						maxRate = float64(rng.Intn(300) + 1)
					}
					d.startFlow("f", int64(rng.Intn(10000)+1), sel, maxRate, nil)
				}
				for step := 0; ; step++ {
					if err := checkMaxMin(d.view()); err != nil {
						t.Logf("seed %d step %d: %v", seed, step, err)
						return false
					}
					switch step {
					case 3:
						d.setCapacity(0, 0)
					case 6:
						d.setCapacity(0, caps[0])
					default:
						if !e.Step() {
							return true
						}
					}
				}
			}
			cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(9))}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// allocView is an allocator-neutral snapshot of the live flows: port
// capacities, and each flow's rate and crossings (a port listed twice is
// crossed twice). It lets the property checks run unchanged on the
// allocator and on the reference.
type allocView struct {
	capacity []float64
	flows    []flowView
}

type flowView struct {
	rate  float64
	ports []int // indexes into allocView.capacity, one per crossing
}

func viewOf(flows []*Flow) allocView {
	var v allocView
	idx := map[*Port]int{}
	for _, f := range flows {
		if f.finished || f.canceled {
			continue
		}
		fv := flowView{rate: f.rate}
		for _, c := range f.cross {
			i, ok := idx[c.port]
			if !ok {
				i = len(v.capacity)
				idx[c.port] = i
				v.capacity = append(v.capacity, c.port.capacity)
			}
			fv.ports = append(fv.ports, i)
		}
		v.flows = append(v.flows, fv)
	}
	return v
}

func refViewOf(flows []*refFlow) allocView {
	var v allocView
	idx := map[*refPort]int{}
	for _, f := range flows {
		if f.finished || f.canceled {
			continue
		}
		fv := flowView{rate: f.rate}
		for _, p := range f.ports {
			i, ok := idx[p]
			if !ok {
				i = len(v.capacity)
				idx[p] = i
				v.capacity = append(v.capacity, p.capacity)
			}
			fv.ports = append(fv.ports, i)
		}
		v.flows = append(v.flows, fv)
	}
	return v
}

// checkMaxMin asserts that an allocation is feasible and max-min fair:
//   - the rates crossing a port sum to at most its capacity;
//   - a flow crossing a zero-capacity port is stalled;
//   - every flow with ports has a bottleneck: a port it crosses that is
//     saturated (within 1e-9 relative) and on which no flow has a higher
//     rate.
func checkMaxMin(v allocView) error {
	const tol = 1e-9
	load := make([]float64, len(v.capacity))
	top := make([]float64, len(v.capacity))
	for _, f := range v.flows {
		for _, p := range f.ports {
			load[p] += f.rate
			top[p] = math.Max(top[p], f.rate)
		}
	}
	for p, c := range v.capacity {
		if load[p] > c*(1+tol) {
			return fmt.Errorf("port %d: load %v exceeds capacity %v", p, load[p], c)
		}
	}
	for i, f := range v.flows {
		if len(f.ports) == 0 {
			continue // unconstrained: completes at once
		}
		bottleneck := false
		for _, p := range f.ports {
			c := v.capacity[p]
			if c == 0 && f.rate != 0 {
				return fmt.Errorf("flow %d: rate %v across zero-capacity port %d", i, f.rate, p)
			}
			if load[p] >= c*(1-tol) && top[p] <= f.rate*(1+tol) {
				bottleneck = true
			}
		}
		if !bottleneck {
			return fmt.Errorf("flow %d: rate %v has no bottleneck among ports %v (load %v, capacity %v)",
				i, f.rate, f.ports, load, v.capacity)
		}
	}
	return nil
}

// A pipelined replica write lists the writer's egress (and, across
// racks, its uplink) once per remote replica, so a flow may cross a port
// more than once. Such a flow draws its rate from the port once per
// crossing, is frozen once, counts once in ActiveFlows, and leaves every
// crossing when it is canceled, completes or drops its cap.
func TestDuplicateCrossings(t *testing.T) {
	// p (120 B/s) is crossed by a twice and by b and c once: four
	// crossings at 30 B/s each. q is wide.
	type net struct {
		e       *sim.Engine
		s       *System
		p, q    *Port
		a, b, c *Flow
	}
	build := func(aBytes int64, aCap float64) *net {
		e := sim.NewEngine(1)
		s := NewSystem(e)
		n := &net{e: e, s: s, p: s.NewPort("p", 120), q: s.NewPort("q", 1000)}
		n.a = s.StartFlow("a", aBytes, []*Port{n.p, n.q, n.p}, aCap, nil)
		n.b = s.StartFlow("b", 1e9, []*Port{n.p}, 0, nil)
		n.c = s.StartFlow("c", 1e9, []*Port{n.q, n.p}, 0, nil)
		return n
	}
	cases := []struct {
		name       string
		aBytes     int64
		aCap       float64
		act        func(n *net)
		rates      [3]float64 // a, b, c; -1 once a flow has ended
		pFlows     int
		qFlows     int
		checkAfter func(t *testing.T, n *net)
	}{
		{name: "rates", aBytes: 1e9, rates: [3]float64{30, 30, 30}, pFlows: 3, qFlows: 2},
		{name: "cancel", aBytes: 1e9, act: func(n *net) { n.a.Cancel() },
			rates: [3]float64{-1, 60, 60}, pFlows: 2, qFlows: 1},
		{name: "cancel-after-swap", aBytes: 1e9, act: func(n *net) { n.b.Cancel(); n.a.Cancel() },
			rates: [3]float64{-1, -1, 120}, pFlows: 1, qFlows: 1},
		{name: "completion", aBytes: 30, act: func(n *net) { n.e.Run(2 * time.Second) },
			rates: [3]float64{-1, 60, 60}, pFlows: 2, qFlows: 1},
		// Capped at 10, a takes 20 of p; b and c split the other 100.
		{name: "capped", aBytes: 1e9, aCap: 10, rates: [3]float64{10, 50, 50}, pFlows: 3, qFlows: 2},
		{name: "cap-removed", aBytes: 1e9, aCap: 10, act: func(n *net) { n.a.SetPriorityCap(0) },
			rates: [3]float64{30, 30, 30}, pFlows: 3, qFlows: 2,
			checkAfter: func(t *testing.T, n *net) {
				if len(n.s.capPortFree) != 1 || n.s.capPortFree[0].ActiveFlows() != 0 {
					t.Fatalf("dropped cap port not recycled empty: %d free", len(n.s.capPortFree))
				}
				if len(n.a.cross) != 3 {
					t.Fatalf("a has %d crossings after dropping its cap, want 3", len(n.a.cross))
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := build(tc.aBytes, tc.aCap)
			if tc.act != nil {
				tc.act(n)
			}
			for i, f := range []*Flow{n.a, n.b, n.c} {
				want := tc.rates[i]
				if live := !f.Done() && !f.Canceled(); live != (want >= 0) {
					t.Fatalf("flow %s: live = %v, want %v", f.Name(), live, want >= 0)
				}
				if want >= 0 && !almostEqual(f.Rate(), want, 1e-9) {
					t.Errorf("rate(%s) = %v, want %v", f.Name(), f.Rate(), want)
				}
			}
			if n.p.ActiveFlows() != tc.pFlows || n.q.ActiveFlows() != tc.qFlows {
				t.Errorf("ActiveFlows: p=%d q=%d, want %d %d", n.p.ActiveFlows(), n.q.ActiveFlows(), tc.pFlows, tc.qFlows)
			}
			if err := slabErr(n.s); err != nil {
				t.Fatal(err)
			}
			if tc.checkAfter != nil {
				tc.checkAfter(t, n)
			}
			for _, f := range []*Flow{n.a, n.b, n.c} {
				f.Cancel()
			}
			if n.p.ActiveFlows() != 0 || n.q.ActiveFlows() != 0 || n.s.ActiveFlows() != 0 {
				t.Fatalf("after canceling all: p=%d q=%d system=%d", n.p.ActiveFlows(), n.q.ActiveFlows(), n.s.ActiveFlows())
			}
		})
	}
}

// slabErr checks the flow slabs against the crossings that index them:
// every in-flight flow sits at its own index in the system slab and,
// once, at the slot its first crossing of each port records.
func slabErr(s *System) error {
	onPort := map[*Port]int{}
	for i, f := range s.flows {
		if int(f.sidx) != i {
			return fmt.Errorf("flow %s at system slot %d records %d", f.name, i, f.sidx)
		}
		slots := map[*Port]int{}
		for _, c := range f.cross {
			if c.slot < 0 {
				continue
			}
			slots[c.port]++
			if c.slot >= len(c.port.flows) || c.port.flows[c.slot] != f {
				return fmt.Errorf("flow %s: crossing of %s records slot %d, not its own", f.name, c.port.name, c.slot)
			}
		}
		for _, c := range f.cross {
			if slots[c.port] != 1 {
				return fmt.Errorf("flow %s holds %d slots on %s, want 1", f.name, slots[c.port], c.port.name)
			}
		}
		for p := range slots {
			onPort[p]++
		}
	}
	for p, n := range onPort {
		if len(p.flows) != n {
			return fmt.Errorf("port %s slab holds %d flows, %d cross it", p.name, len(p.flows), n)
		}
	}
	return nil
}
