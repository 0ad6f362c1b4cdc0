package tracing

import "sync/atomic"

// buffer is the bounded lock-free span ring. Writers claim a slot with a
// single atomic ticket increment and publish the span through an
// atomic.Pointer store, so recording a span never takes a lock and never
// blocks a reader; when the ring laps, the oldest spans are overwritten
// and counted as drops (surfaced as flymon_trace_dropped_total) instead
// of silently vanishing.
type buffer struct {
	slots  []atomic.Pointer[Span]
	mask   uint64
	ticket atomic.Uint64
}

func newBuffer(capacity int) *buffer {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &buffer{slots: make([]atomic.Pointer[Span], n), mask: uint64(n - 1)}
}

func (b *buffer) put(sp Span) {
	t := b.ticket.Add(1) - 1
	p := sp // private copy: the slot pointer must never alias caller memory
	b.slots[t&b.mask].Store(&p)
}

// counts returns how many spans were ever recorded and how many of them
// the ring has overwritten.
func (b *buffer) counts() (total, dropped uint64) {
	total = b.ticket.Load()
	return total, total - min(total, uint64(len(b.slots)))
}

// snapshot copies the retained spans oldest-first. Concurrent writers may
// overwrite slots mid-snapshot; each slot load is atomic, so the copy is
// always a set of valid spans, merely racing on which generation a lapped
// slot shows.
func (b *buffer) snapshot() (spans []Span, total, droppedN uint64) {
	total, droppedN = b.counts()
	spans = make([]Span, 0, total-droppedN)
	for t := droppedN; t < total; t++ {
		if p := b.slots[t&b.mask].Load(); p != nil {
			spans = append(spans, *p)
		}
	}
	return spans, total, droppedN
}
