// Package fairshare implements a flow-level max-min fair bandwidth-sharing
// model on top of the discrete-event engine.
//
// A System owns a set of Ports (capacity constraints in bytes/second) and
// Flows. Each flow crosses one or more ports — a network transfer crosses
// the source egress port and the destination ingress port; a disk request
// crosses a single disk port. At any instant, flow rates are the max-min
// fair allocation subject to every port's capacity. Whenever the flow set
// or a capacity changes, rates are recomputed and the next completion
// event is rescheduled.
//
// This is the standard flow-level abstraction used by cluster simulators:
// it captures bandwidth contention (the dominant effect in bulk MapReduce
// phases) without simulating packets or disk blocks.
package fairshare

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"alm/internal/sim"
)

// Port is a capacity constraint shared by the flows that cross it.
type Port struct {
	name     string
	rank     uint64  // orders ports as their names do; see System.byName
	seq      uint64  // creation order from 1; indexes System.ports and settles equal-name bottleneck ties
	capacity float64 // bytes per second; 0 means the port is down
	sys      *System
	// flows is the slab of distinct flows crossing the port. Each flow
	// records its slot here, so detaching it is a swap-delete.
	flows []*Flow

	// allocate() scratch, valid only while p.allocEpoch == sys.allocEpoch.
	// Epoch tagging lets the hot path reuse ports across allocation passes
	// without per-call map construction (rates are recomputed on every
	// flow start/finish, so this is the simulator's hottest loop).
	allocEpoch uint64
	residual   float64
	unfrozen   int  // crossings, not flows: a repeated crossing counts twice
	hidx       int  // index in sys.heap, -1 when not queued
	dirty      bool // queued in sys.touched for re-keying
}

// Name returns the port's diagnostic name.
func (p *Port) Name() string { return p.name }

// Capacity returns the port's capacity in bytes/second.
func (p *Port) Capacity() float64 { return p.capacity }

// SetCapacity changes the port capacity and reallocates flow rates.
// Setting capacity to zero stalls all flows crossing the port.
func (p *Port) SetCapacity(c float64) {
	if c < 0 {
		c = 0
	}
	if p.capacity == c {
		return
	}
	p.capacity = c
	p.sys.reschedule()
}

// ActiveFlows returns the number of flows currently crossing the port.
// A flow that crosses the port more than once counts once.
func (p *Port) ActiveFlows() int { return len(p.flows) }

// detach swap-deletes the flow at slot from the port's slab, fixing the
// slot the moved flow records for this port. A negative slot marks a
// repeated crossing, which holds no slab entry.
func (p *Port) detach(slot int) {
	if slot < 0 {
		return
	}
	last := len(p.flows) - 1
	if slot != last {
		moved := p.flows[last]
		p.flows[slot] = moved
		for i := range moved.cross {
			if c := &moved.cross[i]; c.port == p && c.slot >= 0 {
				c.slot = slot
				break
			}
		}
	}
	p.flows[last] = nil
	p.flows = p.flows[:last]
}

// crossing is one port a flow crosses and the flow's slot in that port's
// slab. A flow may cross a port more than once (a pipelined replica
// write leaves the writer once per remote replica): only the first
// crossing holds a slot, the repeats carry -1, and every crossing draws
// the flow's rate from the port.
type crossing struct {
	port *Port
	slot int
}

// Flow is an in-progress transfer of a fixed number of bytes across a set
// of ports.
type Flow struct {
	name      string
	seq       uint64
	sys       *System
	cross     []crossing
	capPort   *Port // non-nil when the flow has a private rate cap
	remaining float64
	rate      float64
	done      func()
	finished  bool
	canceled  bool
	// frozen is allocate() scratch: whether the flow's rate is fixed in
	// the current progressive-filling pass.
	frozen bool
	sidx   int32 // index in sys.flows; packs beside the flags
}

// Name returns the flow's diagnostic name.
func (f *Flow) Name() string { return f.name }

// Rate returns the flow's current allocated rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the bytes left to transfer as of the current virtual
// instant.
func (f *Flow) Remaining() float64 {
	f.sys.advance()
	return f.remaining
}

// Done reports whether the flow completed normally.
func (f *Flow) Done() bool { return f.finished }

// Canceled reports whether the flow was canceled.
func (f *Flow) Canceled() bool { return f.canceled }

// Cancel removes the flow without invoking its completion callback.
// Canceling a finished or already-canceled flow is a no-op.
func (f *Flow) Cancel() {
	if f.finished || f.canceled {
		return
	}
	f.sys.advance()
	f.canceled = true
	f.sys.remove(f)
	f.sys.reschedule()
}

// SetPriorityCap changes the flow's private rate cap (bytes/second).
// A cap <= 0 removes the cap.
func (f *Flow) SetPriorityCap(rate float64) {
	if f.finished || f.canceled {
		return
	}
	f.sys.advance()
	if rate <= 0 {
		if f.capPort != nil {
			// Drop the private port; detach it from the flow's crossings
			// and recycle the struct.
			for i, c := range f.cross {
				if c.port == f.capPort {
					c.port.detach(c.slot)
					f.cross = append(f.cross[:i], f.cross[i+1:]...)
					break
				}
			}
			f.sys.freeCapPort(f.capPort)
			f.capPort = nil
		}
	} else if f.capPort != nil {
		f.capPort.capacity = rate
	} else {
		p := f.sys.newCapPort(f.name, rate)
		f.capPort = p
		f.attach(p)
	}
	f.sys.reschedule()
}

// attach adds a crossing of p, taking a slot in p's slab unless the flow
// already crosses p.
func (f *Flow) attach(p *Port) {
	slot := len(p.flows)
	for _, c := range f.cross {
		if c.port == p {
			slot = -1
			break
		}
	}
	if slot >= 0 {
		p.flows = append(p.flows, f)
	}
	f.cross = append(f.cross, crossing{port: p, slot: slot})
}

// System ties ports and flows to a simulation engine.
type System struct {
	eng        *sim.Engine
	flows      []*Flow // slab of in-flight flows; Flow.sidx indexes it
	lastUpdate sim.Time
	completion *sim.Timer
	nextSeq    uint64

	// ports holds every port ever created, Port.seq-1 indexing it, so
	// allocate's heap and touched list can name ports by seq. Those
	// slices then hold no pointers, and reordering them costs no GC
	// write barriers: a pass costs the same whether or not a collection
	// is marking.
	ports []*Port

	// byName holds every port in name order, except recycled cap ports
	// waiting in capPortFree. Each port's rank is a number that orders
	// ports exactly as their names do (equal names, equal ranks), so the
	// bottleneck heap breaks share ties without comparing strings. Ranks
	// are spaced rankGap apart and a new name takes the midpoint of its
	// neighbours'; when two neighbours leave no room, every rank is
	// renumbered. Ports are created at set-up and per task attempt, so
	// the sorted insert is rare next to allocation passes.
	byName []*Port

	// onCompletionFn is the method value bound once at construction so
	// reschedule — the hottest call site in the simulator — does not
	// allocate a fresh closure per flow start/finish.
	onCompletionFn func()

	// allocate() scratch, reused across calls.
	allocEpoch uint64
	heap       []heapEntry
	touched    []uint64 // seqs of ports queued for re-keying

	// onCompletion scratch, reused across completion events.
	finishedScratch []*Flow

	// capPortFree recycles the private rate-cap ports that capped flows
	// create and abandon on completion. The event loop is single-
	// goroutine, so a plain slice free list is race-free; reuse never
	// crosses runs because the System itself is per-run.
	capPortFree []*Port
}

// NewSystem returns a fair-share system bound to the engine.
func NewSystem(e *sim.Engine) *System {
	s := &System{eng: e}
	s.onCompletionFn = s.onCompletion
	return s
}

// NewPort creates a port with the given capacity in bytes/second.
func (s *System) NewPort(name string, capacity float64) *Port {
	if capacity < 0 {
		panic(fmt.Sprintf("fairshare: negative capacity for port %s", name))
	}
	return s.newPortInternal(name, capacity)
}

func (s *System) newPortInternal(name string, capacity float64) *Port {
	p := &Port{name: name, seq: uint64(len(s.ports)) + 1, capacity: capacity, sys: s}
	s.ports = append(s.ports, p)
	s.insertByName(p)
	return p
}

// rankGap is the spacing of freshly numbered ranks: 2^32 names fit, and
// about 32 names can land between the same two neighbours before a
// renumber. A name that sorts first or last steps a gap past its one
// neighbour.
const rankGap = 1 << 32

// insertByName files p under its name and gives it a rank.
func (s *System) insertByName(p *Port) {
	i := sort.Search(len(s.byName), func(i int) bool { return s.byName[i].name >= p.name })
	s.byName = slices.Insert(s.byName, i, p)
	if i+1 < len(s.byName) && s.byName[i+1].name == p.name {
		p.rank = s.byName[i+1].rank
		return
	}
	lo, hi := uint64(0), uint64(math.MaxUint64)
	if i > 0 {
		lo = s.byName[i-1].rank
	}
	last := i+1 == len(s.byName)
	if !last {
		hi = s.byName[i+1].rank
	}
	switch {
	case last && lo <= math.MaxUint64-rankGap:
		p.rank = lo + rankGap
	case i == 0 && hi > rankGap:
		p.rank = hi - rankGap
	case hi-lo >= 2:
		p.rank = lo + (hi-lo)/2
	default:
		rank := uint64(0)
		for j, q := range s.byName {
			if j == 0 || q.name != s.byName[j-1].name {
				rank += rankGap
			}
			q.rank = rank
		}
	}
}

// removeByName unfiles p; the other ranks keep their order.
func (s *System) removeByName(p *Port) {
	i := sort.Search(len(s.byName), func(i int) bool { return s.byName[i].name >= p.name })
	for s.byName[i] != p {
		i++
	}
	s.byName = slices.Delete(s.byName, i, i+1)
}

// newCapPort returns a private rate-cap port, reusing a recycled struct
// (and its emptied flow slab) when one is available. The name string is
// rebuilt identically either way and the port re-filed under it —
// allocate()'s bottleneck tie-break orders ports by name, so pooling
// must not perturb them.
func (s *System) newCapPort(flowName string, rate float64) *Port {
	if n := len(s.capPortFree); n > 0 {
		p := s.capPortFree[n-1]
		s.capPortFree[n-1] = nil
		s.capPortFree = s.capPortFree[:n-1]
		p.name = flowName + "/cap"
		p.capacity = rate
		s.insertByName(p)
		return p
	}
	return s.newPortInternal(flowName+"/cap", rate)
}

// freeCapPort parks a detached cap port for reuse.
func (s *System) freeCapPort(p *Port) {
	s.removeByName(p)
	s.capPortFree = append(s.capPortFree, p)
}

// StartFlow begins transferring bytes across the given ports, calling
// done (if non-nil) when the last byte arrives. maxRate > 0 imposes a
// private rate cap. A flow of zero (or negative) bytes completes at the
// current instant, with done deferred to a fresh engine event. A port
// listed more than once is crossed once per listing: the flow draws its
// rate from it that many times.
func (s *System) StartFlow(name string, bytes int64, ports []*Port, maxRate float64, done func()) *Flow {
	s.advance()
	s.nextSeq++
	f := &Flow{name: name, seq: s.nextSeq, sys: s, remaining: float64(bytes), done: done}
	if len(ports) == 0 && maxRate <= 0 {
		// Unconstrained (e.g., node-local loopback): instantaneous.
		f.remaining = 0
	}
	if f.remaining <= 0 {
		f.finished = true
		if done != nil {
			s.eng.Schedule(0, done)
		}
		return f
	}
	n := len(ports)
	if maxRate > 0 {
		n++
	}
	f.cross = make([]crossing, 0, n)
	for _, p := range ports {
		if p == nil {
			panic("fairshare: nil port in StartFlow")
		}
		f.attach(p)
	}
	if maxRate > 0 {
		cp := s.newCapPort(name, maxRate)
		f.capPort = cp
		f.attach(cp)
	}
	f.sidx = int32(len(s.flows))
	s.flows = append(s.flows, f)
	s.reschedule()
	return f
}

// ActiveFlows returns the number of in-flight flows.
func (s *System) ActiveFlows() int { return len(s.flows) }

func (s *System) remove(f *Flow) {
	last := len(s.flows) - 1
	moved := s.flows[last]
	s.flows[f.sidx] = moved
	moved.sidx = f.sidx
	s.flows[last] = nil
	s.flows = s.flows[:last]
	for _, c := range f.cross {
		c.port.detach(c.slot)
	}
	if f.capPort != nil {
		// The private cap port is reachable only through this flow;
		// recycle it (its slab is empty again after the loop above).
		s.freeCapPort(f.capPort)
		f.capPort = nil
	}
}

// advance applies progress at the current rates since the last update.
func (s *System) advance() {
	now := s.eng.Now()
	dt := now - s.lastUpdate
	s.lastUpdate = now
	if dt <= 0 {
		return
	}
	secs := dt.Seconds()
	for _, f := range s.flows {
		f.remaining -= f.rate * secs
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// reschedule recomputes the max-min fair rates and re-arms the next
// completion event. Callers must have advanced progress first (advance is
// called by the mutating entry points).
func (s *System) reschedule() {
	s.advance()
	s.allocate()
	// Find the earliest completion among flows with a positive rate.
	first := math.Inf(1)
	for _, f := range s.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < first {
			first = t
		}
	}
	if math.IsInf(first, 1) {
		if s.completion != nil {
			s.completion.Stop()
		}
		return
	}
	delay := secondsToDuration(first)
	// Re-arm the single completion timer in place; Reschedule is
	// ordering-equivalent to the old Stop-then-Schedule but reuses the
	// timer and the pre-bound onCompletionFn, which together were the
	// top allocation sites under fetch-session churn.
	if s.completion == nil {
		s.completion = s.eng.Schedule(delay, s.onCompletionFn)
	} else {
		s.completion.Reschedule(delay, s.onCompletionFn)
	}
}

func (s *System) onCompletion() {
	s.advance()
	finished := s.finishedScratch[:0]
	for _, f := range s.flows {
		if f.remaining <= completionEpsilon {
			finished = append(finished, f)
		}
	}
	// Completion callbacks fire in flow-creation order, not slab order.
	sortFlows(finished)
	for _, f := range finished {
		f.finished = true
		s.remove(f)
	}
	s.reschedule()
	for _, f := range finished {
		if f.done != nil {
			f.done()
		}
	}
	// Drop flow references before parking the scratch so the pool does
	// not pin completed flows (and their done closures) for the run.
	for i := range finished {
		finished[i] = nil
	}
	s.finishedScratch = finished[:0]
}

const completionEpsilon = 0.5 // half a byte

func sortFlows(fs []*Flow) {
	// Insertion sort: the finished set is nearly always tiny.
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].seq < fs[j-1].seq; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// allocate computes max-min fair rates via progressive filling: repeatedly
// take the port with the smallest per-flow fair share, freeze its flows at
// that rate, subtract their consumption everywhere, and continue.
//
// The bottleneck comes from an indexed min-heap of the ports that still
// carry unfrozen flows, keyed (share, name, creation seq) with share =
// residual / unfrozen. Freezing a bottleneck's flows changes the key of
// only the ports those flows cross, so each of them is re-keyed once per
// bottleneck (or dropped when its last unfrozen crossing goes) instead of
// rescanning every port per iteration. The order is total, so the result
// does not depend on the order ports were gathered or flows sit in their
// slabs: a port's residual is debited the same share by every crossing
// frozen at a bottleneck, whatever the order.
//
// The pass keeps its working state (per-port residual capacity, unfrozen
// crossing count and heap index, per-flow frozen bit) in epoch-tagged
// scratch fields instead of freshly built maps: allocate runs on every
// flow start and finish.
func (s *System) allocate() {
	if len(s.flows) == 0 {
		return
	}
	s.allocEpoch++
	ports := s.ports
	h := s.heap[:0]
	remaining := 0
	for _, f := range s.flows {
		f.rate = 0
		for _, c := range f.cross {
			p := c.port
			if p.allocEpoch != s.allocEpoch {
				p.allocEpoch = s.allocEpoch
				p.residual = p.capacity
				p.unfrozen = 0
				p.hidx = -1
				h = append(h, heapEntry{seq: p.seq})
			}
			p.unfrozen++
		}
		if len(f.cross) == 0 {
			// Unconstrained flow: complete "instantly" at a huge rate.
			f.rate = math.MaxFloat64 / 4
			f.frozen = true
		} else {
			f.frozen = false
			remaining++
		}
	}
	// Key every gathered port. A port whose share is not below +Inf
	// (infinite or NaN capacity) can never be the bottleneck: its
	// residual stays non-finite whatever is subtracted, so it stays out.
	n := 0
	for _, e := range h {
		p := ports[e.seq-1]
		share := p.residual / float64(p.unfrozen)
		if share < math.Inf(1) {
			p.hidx = n
			h[n] = heapEntry{share: share, rank: p.rank, seq: p.seq}
			n++
		}
	}
	h = h[:n]
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(h, ports, i)
	}
	touched := s.touched[:0]
	for remaining > 0 && len(h) > 0 {
		bottleneck, share := ports[h[0].seq-1], h[0].share
		h = heapRemove(h, ports, 0)
		if share < 0 {
			share = 0
		}
		// Freeze every unfrozen flow crossing the bottleneck at the share.
		for _, f := range bottleneck.flows {
			if f.frozen {
				continue
			}
			f.rate = share
			f.frozen = true
			remaining--
			for _, c := range f.cross {
				p := c.port
				p.residual -= share
				if p.residual < 0 {
					p.residual = 0
				}
				p.unfrozen--
				if p.hidx >= 0 && !p.dirty {
					p.dirty = true
					touched = append(touched, p.seq)
				}
			}
		}
		for _, seq := range touched {
			p := ports[seq-1]
			p.dirty = false
			if p.unfrozen == 0 {
				h = heapRemove(h, ports, p.hidx)
				continue
			}
			h[p.hidx].share = p.residual / float64(p.unfrozen)
			heapFix(h, ports, p.hidx)
		}
		touched = touched[:0]
	}
	s.heap = h[:0]
	s.touched = touched
}

// heapEntry is one port in allocate's bottleneck heap, its whole key
// stored inline so comparisons never touch the port. The port is named
// by its seq, not a pointer, so sifting entries stores no pointers.
type heapEntry struct {
	share float64
	rank  uint64
	seq   uint64
}

// entryLess orders the heap by (share, name, creation seq), the name
// through its rank. (share, name) is the order a full scan for the least
// share picks bottlenecks in; the creation seq only settles ports of
// equal name.
func entryLess(a, b heapEntry) bool {
	if a.share != b.share {
		return a.share < b.share
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// siftUp moves the entry at i toward the root until its parent is
// smaller, reporting whether it moved. ports is System.ports, where each
// moved entry's port records its new index.
func siftUp(h []heapEntry, ports []*Port, i int) bool {
	e, start := h[i], i
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		ports[h[i].seq-1].hidx = i
		i = parent
	}
	h[i] = e
	ports[e.seq-1].hidx = i
	return i != start
}

// siftDown moves the entry at i toward the leaves until no child is
// smaller, reporting whether it moved.
func siftDown(h []heapEntry, ports []*Port, i int) bool {
	e, start := h[i], i
	for {
		least := 2*i + 1
		if least >= len(h) {
			break
		}
		if r := least + 1; r < len(h) && entryLess(h[r], h[least]) {
			least = r
		}
		if !entryLess(h[least], e) {
			break
		}
		h[i] = h[least]
		ports[h[i].seq-1].hidx = i
		i = least
	}
	h[i] = e
	ports[e.seq-1].hidx = i
	return i != start
}

// heapFix restores the heap order after the key at i changed.
func heapFix(h []heapEntry, ports []*Port, i int) {
	if !siftDown(h, ports, i) {
		siftUp(h, ports, i)
	}
}

// heapRemove deletes the entry at i and returns the shortened heap.
func heapRemove(h []heapEntry, ports []*Port, i int) []heapEntry {
	ports[h[i].seq-1].hidx = -1
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		heapFix(h[:last], ports, i)
	}
	return h[:last]
}

func secondsToDuration(s float64) time.Duration {
	if s < 0 {
		return 0
	}
	ns := s * 1e9
	if ns > math.MaxInt64/2 {
		return time.Duration(math.MaxInt64 / 2)
	}
	// Round up so the completion event never lands before the last byte.
	return time.Duration(math.Ceil(ns))
}
