package fairshare

import (
	"fmt"
	"math/rand"
	"testing"

	"alm/internal/sim"
)

// BenchmarkManyFlows measures the flow-level simulation with a shuffle-
// like pattern: 200 flows across 40 ports, arriving and completing
// continuously.
func BenchmarkManyFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(1)
		s := NewSystem(e)
		ports := make([]*Port, 40)
		for p := range ports {
			ports[p] = s.NewPort(fmt.Sprintf("p%d", p), 1000)
		}
		for f := 0; f < 200; f++ {
			src := ports[f%40]
			dst := ports[(f*7+3)%40]
			s.StartFlow("f", int64(1000+f*37), []*Port{src, dst}, 0, nil)
		}
		e.RunAll()
	}
}

// BenchmarkAllocate measures one max-min fair allocation pass.
//
//   - ports20-flows100: 100 flows over 20 ports, two ports each.
//   - racks20x20-flows110: the shuffle of a 400-node job, which is where
//     allocation time goes at scale. 20 racks of 20 nodes, each node with
//     an egress, an ingress and a disk-read port, each rack an uplink
//     (5:1 oversubscribed), and 40 reducers with a shuffle-CPU port each.
//     110 cross-rack fetches cross {src disk, reducer shuffle CPU, src
//     egress, src uplink, dst uplink, dst ingress}, as engine fetches do.
func BenchmarkAllocate(b *testing.B) {
	b.Run("ports20-flows100", func(b *testing.B) {
		e := sim.NewEngine(1)
		s := NewSystem(e)
		ports := make([]*Port, 20)
		for p := range ports {
			ports[p] = s.NewPort(fmt.Sprintf("p%d", p), 1000)
		}
		for f := 0; f < 100; f++ {
			s.StartFlow("f", 1e12, []*Port{ports[f%20], ports[(f+7)%20]}, 0, nil)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.allocate()
		}
	})
	b.Run("racks20x20-flows110", func(b *testing.B) {
		const racks, perRack, reducers = 20, 20, 40
		const nic, disk, shuffleCPU = 1250e6, 450e6, 60e6
		const nodes = racks * perRack
		e := sim.NewEngine(1)
		s := NewSystem(e)
		egress := make([]*Port, nodes)
		ingress := make([]*Port, nodes)
		diskRead := make([]*Port, nodes)
		for n := 0; n < nodes; n++ {
			egress[n] = s.NewPort(fmt.Sprintf("node-%03d/out", n), nic)
			ingress[n] = s.NewPort(fmt.Sprintf("node-%03d/in", n), nic)
			diskRead[n] = s.NewPort(fmt.Sprintf("node-%03d/disk-r", n), disk)
		}
		uplinks := make([]*Port, racks)
		for r := range uplinks {
			uplinks[r] = s.NewPort(fmt.Sprintf("rack-%d/uplink", r), nic*perRack/5)
		}
		rng := rand.New(rand.NewSource(1))
		reducerNode := make([]int, reducers)
		cpu := make([]*Port, reducers)
		for r := range reducerNode {
			reducerNode[r] = rng.Intn(nodes)
			cpu[r] = s.NewPort(fmt.Sprintf("r%d/shuffle-cpu", r), shuffleCPU)
		}
		for f := 0; f < 110; f++ {
			r := f % reducers
			dst := reducerNode[r]
			src := rng.Intn(nodes)
			for src/perRack == dst/perRack {
				src = rng.Intn(nodes)
			}
			ports := []*Port{diskRead[src], cpu[r], egress[src], uplinks[src/perRack], uplinks[dst/perRack], ingress[dst]}
			s.StartFlow(fmt.Sprintf("f%d", f), 1e12, ports, 0, nil)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.allocate()
		}
	})
}
