package fairshare

// The reference allocator: the progressive-filling implementation the
// simulator shipped before the port heap and the flow slabs, kept here
// verbatim (types renamed ref*) as the differential oracle for
// TestFlowDifferential and the max-min property tests. Its bottleneck
// search rescans every port on every filling iteration and its flow
// sets are maps, so it settles an exact (share, name) tie in map order;
// scripts that compare it bit for bit give every port a distinct name.

import (
	"fmt"
	"math"

	"alm/internal/sim"
)

// Port is a capacity constraint shared by the flows that cross it.
type refPort struct {
	name     string
	capacity float64 // bytes per second; 0 means the port is down
	sys      *refSystem
	flows    map[*refFlow]struct{}

	// allocate() scratch, valid only while p.allocEpoch == sys.allocEpoch.
	// Epoch tagging lets the hot path reuse ports across allocation passes
	// without per-call map construction (rates are recomputed on every
	// flow start/finish, so this is the simulator's hottest loop).
	allocEpoch uint64
	residual   float64
	unfrozen   int
}

// Name returns the port's diagnostic name.
func (p *refPort) Name() string { return p.name }

// Capacity returns the port's capacity in bytes/second.
func (p *refPort) Capacity() float64 { return p.capacity }

// SetCapacity changes the port capacity and reallocates flow rates.
// Setting capacity to zero stalls all flows crossing the port.
func (p *refPort) SetCapacity(c float64) {
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
func (p *refPort) ActiveFlows() int { return len(p.flows) }

// Flow is an in-progress transfer of a fixed number of bytes across a set
// of ports.
type refFlow struct {
	name      string
	seq       uint64
	sys       *refSystem
	ports     []*refPort
	capPort   *refPort // non-nil when the flow has a private rate cap
	remaining float64
	rate      float64
	done      func()
	finished  bool
	canceled  bool
	// frozen is allocate() scratch: whether the flow's rate is fixed in
	// the current progressive-filling pass.
	frozen bool
}

// Name returns the flow's diagnostic name.
func (f *refFlow) Name() string { return f.name }

// Rate returns the flow's current allocated rate in bytes/second.
func (f *refFlow) Rate() float64 { return f.rate }

// Remaining returns the bytes left to transfer as of the current virtual
// instant.
func (f *refFlow) Remaining() float64 {
	f.sys.advance()
	return f.remaining
}

// Done reports whether the flow completed normally.
func (f *refFlow) Done() bool { return f.finished }

// Canceled reports whether the flow was canceled.
func (f *refFlow) Canceled() bool { return f.canceled }

// Cancel removes the flow without invoking its completion callback.
// Canceling a finished or already-canceled flow is a no-op.
func (f *refFlow) Cancel() {
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
func (f *refFlow) SetPriorityCap(rate float64) {
	if f.finished || f.canceled {
		return
	}
	f.sys.advance()
	if rate <= 0 {
		if f.capPort != nil {
			delete(f.capPort.flows, f)
			// Drop the private port; detach it from the flow's port list
			// and recycle the struct.
			f.ports = refRemovePort(f.ports, f.capPort)
			f.sys.capPortFree = append(f.sys.capPortFree, f.capPort)
			f.capPort = nil
		}
	} else if f.capPort != nil {
		f.capPort.capacity = rate
	} else {
		p := f.sys.newCapPort(f.name, rate)
		f.capPort = p
		f.ports = append(f.ports, p)
		p.flows[f] = struct{}{}
	}
	f.sys.reschedule()
}

func refRemovePort(ports []*refPort, p *refPort) []*refPort {
	out := ports[:0]
	for _, q := range ports {
		if q != p {
			out = append(out, q)
		}
	}
	return out
}

// System ties ports and flows to a simulation engine.
type refSystem struct {
	eng        *sim.Engine
	flows      map[*refFlow]struct{}
	lastUpdate sim.Time
	completion *sim.Timer
	nextSeq    uint64

	// onCompletionFn is the method value bound once at construction so
	// reschedule — the hottest call site in the simulator — does not
	// allocate a fresh closure per flow start/finish.
	onCompletionFn func()

	// allocate() scratch, reused across calls.
	allocEpoch   uint64
	portsScratch []*refPort

	// onCompletion scratch, reused across completion events.
	finishedScratch []*refFlow

	// capPortFree recycles the private rate-cap ports that capped flows
	// create and abandon on completion. The event loop is single-
	// goroutine, so a plain slice free list is race-free; reuse never
	// crosses runs because the System itself is per-run.
	capPortFree []*refPort
}

// newRefSystem returns a fair-share system bound to the engine.
func newRefSystem(e *sim.Engine) *refSystem {
	s := &refSystem{eng: e, flows: make(map[*refFlow]struct{})}
	s.onCompletionFn = s.onCompletion
	return s
}

// NewPort creates a port with the given capacity in bytes/second.
func (s *refSystem) NewPort(name string, capacity float64) *refPort {
	if capacity < 0 {
		panic(fmt.Sprintf("fairshare: negative capacity for port %s", name))
	}
	return s.newPortInternal(name, capacity)
}

func (s *refSystem) newPortInternal(name string, capacity float64) *refPort {
	return &refPort{name: name, capacity: capacity, sys: s, flows: make(map[*refFlow]struct{})}
}

// newCapPort returns a private rate-cap port, reusing a recycled struct
// (and its emptied flow map) when one is available. The name string is
// rebuilt identically either way — allocate()'s bottleneck tie-break
// compares port names, so pooling must not perturb them.
func (s *refSystem) newCapPort(flowName string, rate float64) *refPort {
	if n := len(s.capPortFree); n > 0 {
		p := s.capPortFree[n-1]
		s.capPortFree[n-1] = nil
		s.capPortFree = s.capPortFree[:n-1]
		p.name = flowName + "/cap"
		p.capacity = rate
		return p
	}
	return s.newPortInternal(flowName+"/cap", rate)
}

// StartFlow begins transferring bytes across the given ports, calling
// done (if non-nil) when the last byte arrives. maxRate > 0 imposes a
// private rate cap. A flow of zero (or negative) bytes completes at the
// current instant, with done deferred to a fresh engine event.
func (s *refSystem) StartFlow(name string, bytes int64, ports []*refPort, maxRate float64, done func()) *refFlow {
	s.advance()
	s.nextSeq++
	f := &refFlow{name: name, seq: s.nextSeq, sys: s, remaining: float64(bytes), done: done}
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
	f.ports = make([]*refPort, 0, len(ports)+1)
	for _, p := range ports {
		if p == nil {
			panic("fairshare: nil port in StartFlow")
		}
		f.ports = append(f.ports, p)
		p.flows[f] = struct{}{}
	}
	if maxRate > 0 {
		cp := s.newCapPort(name, maxRate)
		f.capPort = cp
		f.ports = append(f.ports, cp)
		cp.flows[f] = struct{}{}
	}
	s.flows[f] = struct{}{}
	s.reschedule()
	return f
}

// ActiveFlows returns the number of in-flight flows.
func (s *refSystem) ActiveFlows() int { return len(s.flows) }

func (s *refSystem) remove(f *refFlow) {
	delete(s.flows, f)
	for _, p := range f.ports {
		delete(p.flows, f)
	}
	if f.capPort != nil {
		// The private cap port is reachable only through this flow;
		// recycle it (its flow map is empty again after the loop above).
		s.capPortFree = append(s.capPortFree, f.capPort)
		f.capPort = nil
	}
}

// advance applies progress at the current rates since the last update.
func (s *refSystem) advance() {
	now := s.eng.Now()
	dt := now - s.lastUpdate
	s.lastUpdate = now
	if dt <= 0 {
		return
	}
	secs := dt.Seconds()
	for f := range s.flows {
		f.remaining -= f.rate * secs
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// reschedule recomputes the max-min fair rates and re-arms the next
// completion event. Callers must have advanced progress first (advance is
// called by the mutating entry points).
func (s *refSystem) reschedule() {
	s.advance()
	s.allocate()
	// Find the earliest completion among flows with a positive rate.
	first := math.Inf(1)
	for f := range s.flows {
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

func (s *refSystem) onCompletion() {
	s.advance()
	finished := s.finishedScratch[:0]
	for f := range s.flows {
		if f.remaining <= completionEpsilon {
			finished = append(finished, f)
		}
	}
	// Completion callbacks fire in flow-creation order: the map
	// iteration above is nondeterministic, so sort by sequence number to
	// keep simulations reproducible.
	refSortFlows(finished)
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

func refSortFlows(fs []*refFlow) {
	// Insertion sort: the finished set is nearly always tiny.
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].seq < fs[j-1].seq; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// allocate computes max-min fair rates via progressive filling: repeatedly
// find the port with the smallest per-flow fair share, freeze its flows at
// that rate, subtract their consumption everywhere, and continue.
//
// The pass keeps its working state (per-port residual capacity and
// unfrozen-flow count, per-flow frozen bit) in epoch-tagged scratch fields
// instead of freshly built maps: allocate runs on every flow start and
// finish, and at paper scale the map churn dominated the recompute cost.
// The bottleneck choice is by (share, name), so the result is independent
// of the order ports were gathered in.
func (s *refSystem) allocate() {
	if len(s.flows) == 0 {
		return
	}
	s.allocEpoch++
	ports := s.portsScratch[:0]
	remaining := 0
	for f := range s.flows {
		f.rate = 0
		for _, p := range f.ports {
			if p.allocEpoch != s.allocEpoch {
				p.allocEpoch = s.allocEpoch
				p.residual = p.capacity
				p.unfrozen = 0
				ports = append(ports, p)
			}
			p.unfrozen++
		}
		if len(f.ports) == 0 {
			// Unconstrained flow: complete "instantly" at a huge rate.
			f.rate = math.MaxFloat64 / 4
			f.frozen = true
		} else {
			f.frozen = false
			remaining++
		}
	}
	s.portsScratch = ports
	for remaining > 0 {
		// Find the bottleneck port: the one with the least fair share.
		var bottleneck *refPort
		share := math.Inf(1)
		for _, p := range ports {
			if p.unfrozen == 0 {
				continue
			}
			ps := p.residual / float64(p.unfrozen)
			if ps < share || (ps == share && bottleneck != nil && p.name < bottleneck.name) {
				share = ps
				bottleneck = p
			}
		}
		if bottleneck == nil {
			break
		}
		if share < 0 {
			share = 0
		}
		// Freeze every unfrozen flow crossing the bottleneck at the share.
		for f := range bottleneck.flows {
			if f.frozen {
				continue
			}
			f.rate = share
			f.frozen = true
			remaining--
			for _, p := range f.ports {
				p.residual -= share
				if p.residual < 0 {
					p.residual = 0
				}
				p.unfrozen--
			}
		}
	}
}
