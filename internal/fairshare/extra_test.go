package fairshare

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"alm/internal/sim"
)

func TestPortAccessorsAndNames(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("mine", 42)
	if p.Name() != "mine" || p.Capacity() != 42 {
		t.Fatalf("accessors: %q %v", p.Name(), p.Capacity())
	}
	if p.ActiveFlows() != 0 {
		t.Fatal("fresh port should have no flows")
	}
	f := s.StartFlow("f", 100, []*Port{p}, 0, nil)
	if p.ActiveFlows() != 1 || s.ActiveFlows() != 1 {
		t.Fatal("flow not registered on port/system")
	}
	if f.Name() != "f" {
		t.Fatalf("flow name %q", f.Name())
	}
	e.RunAll()
	if p.ActiveFlows() != 0 || s.ActiveFlows() != 0 {
		t.Fatal("flow not deregistered after completion")
	}
}

func TestNegativeCapacityClamped(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("p", 100)
	p.SetCapacity(-5)
	if p.Capacity() != 0 {
		t.Fatalf("negative capacity should clamp to 0, got %v", p.Capacity())
	}
	p.SetCapacity(0) // no-op path (already 0)
}

func TestNewPortPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative port capacity")
		}
	}()
	e := sim.NewEngine(1)
	NewSystem(e).NewPort("bad", -1)
}

func TestStartFlowPanicsOnNilPort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil port")
		}
	}()
	e := sim.NewEngine(1)
	s := NewSystem(e)
	s.StartFlow("f", 10, []*Port{nil}, 0, nil)
}

func TestCancelFinishedFlowIsNoop(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("p", 100)
	f := s.StartFlow("f", 10, []*Port{p}, 0, nil)
	e.RunAll()
	f.Cancel() // already done; must not corrupt state
	if f.Canceled() {
		t.Fatal("finished flow must not become canceled")
	}
}

func TestSetPriorityCapRemove(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("p", 1000)
	var done sim.Time
	f := s.StartFlow("f", 2000, []*Port{p}, 100, func() { done = e.Now() })
	e.Run(time.Second)  // 100 bytes at the cap
	f.SetPriorityCap(0) // remove cap -> full port speed
	e.RunAll()
	// 1s capped (100 B) + 1900/1000 = 1.9s -> ~2.9s total.
	if done < 2800*time.Millisecond || done > 3*time.Second {
		t.Fatalf("completion at %v, want ~2.9s after cap removal", done)
	}
	// Setting a cap on a finished flow is a no-op.
	f.SetPriorityCap(5)
}

func TestRemainingOnFreshFlow(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("p", 100)
	f := s.StartFlow("f", 500, []*Port{p}, 0, nil)
	if f.Remaining() != 500 {
		t.Fatalf("fresh flow remaining = %v, want 500", f.Remaining())
	}
	e.Run(2 * time.Second)
	rem := f.Remaining()
	if rem < 290 || rem > 310 {
		t.Fatalf("after 2s remaining = %v, want ~300", rem)
	}
	e.RunAll()
}

// Port ranks must order ports exactly as their names do — equal names,
// equal ranks — through ports created mid-run, cap ports recycled under
// new names, and the renumbering a crowded gap forces.
func TestPortRankOrdersNames(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	rng := rand.New(rand.NewSource(3))
	p := s.NewPort("shared", 1e9)
	check := func(when string) {
		t.Helper()
		for i, a := range s.byName {
			for _, b := range s.byName[i:] {
				if (a.name < b.name) != (a.rank < b.rank) || (a.name == b.name) != (a.rank == b.rank) {
					t.Fatalf("%s: %q rank %d vs %q rank %d", when, a.name, a.rank, b.name, b.rank)
				}
			}
		}
	}
	// "m", then names ever closer to it from above: each lands in the
	// shrinking gap above "m" until a renumber.
	s.NewPort("m", 1)
	s.NewPort("n", 1)
	name := "m"
	for i := 0; i < 80; i++ {
		name += "0"
		s.NewPort(name, 1)
	}
	check("crowded gap")
	var flows []*Flow
	for i := 0; i < 300; i++ {
		switch rng.Intn(4) {
		case 0:
			s.NewPort(fmt.Sprintf("node-%d/%c", rng.Intn(50), 'a'+rng.Intn(3)), 1)
		case 1: // a capped flow: a cap port under a fresh or recycled struct
			flows = append(flows, s.StartFlow(fmt.Sprintf("f%d", rng.Intn(40)), 1e9, []*Port{p}, 5, nil))
		case 2:
			if len(flows) > 0 {
				flows[rng.Intn(len(flows))].Cancel()
			}
		case 3:
			if len(flows) > 0 {
				flows[rng.Intn(len(flows))].SetPriorityCap(float64(rng.Intn(2)))
			}
		}
	}
	check("after churn")
	if n := len(s.byName) + len(s.capPortFree); n != len(s.ports) {
		t.Fatalf("%d ports filed or free, %d created", n, len(s.ports))
	}
}
