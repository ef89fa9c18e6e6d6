package sim

// QueueKind selects an event-queue backend for an Engine.
type QueueKind uint8

const (
	// QueueWheel is the hierarchical timing wheel: O(1) Schedule and
	// Stop, cascading on clock advance, an overflow heap for events
	// beyond the wheel horizon. The zero value, so the default backend.
	QueueWheel QueueKind = iota
	// QueueHeap is the binary min-heap over (at, seq): O(log n)
	// Schedule/Stop/pop. Kept as the oracle for the differential tester
	// and for the side-by-side queue benchmarks.
	QueueHeap
)

// String names the backend.
func (k QueueKind) String() string {
	switch k {
	case QueueWheel:
		return "wheel"
	case QueueHeap:
		return "heap"
	}
	return "unknown"
}

// eventQueue is the contract between the Engine and a queue backend.
// The Engine guarantees single-threaded access and that every pushed
// timer has at >= the engine clock; the backend guarantees peek/pop
// yield pending timers in strict (at, seq) order — the determinism
// contract every golden in the repo rides on. peek may mutate internal
// structure (the wheel cascades buckets to locate its minimum) but
// never changes the firing sequence.
type eventQueue interface {
	// schedule inserts t (loc must be locNone).
	schedule(t *Timer)
	// remove deletes a pending t and resets its loc to locNone.
	remove(t *Timer)
	// peek returns the minimum pending timer, or nil when empty.
	peek() *Timer
	// pop removes and returns the minimum pending timer, or nil.
	pop() *Timer
	// len reports the number of pending timers.
	len() int
}

// timerLess orders timers by (at, seq): time first, scheduling order for
// ties. Both backends and every bucket drain reduce to this key.
func timerLess(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
