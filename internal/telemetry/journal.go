package telemetry

import (
	"sync"
	"time"
)

// DefaultJournalSize is the ring capacity a Registry's journal starts with:
// enough to hold every reconfiguration of a busy SDM epoch sequence while
// bounding memory regardless of daemon uptime.
const DefaultJournalSize = 256

// Event is one control-plane reconfiguration record. At is monotonic time
// since the journal was created (from time.Since on a monotonic base, so it
// orders events even across wall-clock steps); Seq is a gap-free sequence
// number, so a reader can detect how many events the bounded ring evicted
// between two scrapes.
type Event struct {
	Seq           uint64 `json:"seq"`
	AtNs          int64  `json:"at_ns"` // monotonic ns since journal start
	Kind          string `json:"kind"`  // deploy|remove|resize|split|freeze|thaw|reset|rekey|republish
	Task          int    `json:"task,omitempty"`
	Detail        string `json:"detail,omitempty"`
	LatencyNs     int64  `json:"latency_ns"`
	GraceNs       int64  `json:"grace_ns,omitempty"` // part of LatencyNs spent waiting for in-flight readers (remove|resize|split|freeze)
	VersionBefore uint64 `json:"version_before"`
	VersionAfter  uint64 `json:"version_after"`
	OK            bool   `json:"ok"`
	Err           string `json:"err,omitempty"`
}

// Journal is a bounded ring of reconfiguration events. Record overwrites the
// oldest entry once the ring is full; Events returns the survivors oldest-
// first. All methods are safe for concurrent use; recording is O(1) with no
// allocation after the ring is built.
type Journal struct {
	mu      sync.Mutex
	start   time.Time
	ring    []Event
	next    uint64 // total events ever recorded == next Seq
	dropped uint64
}

// NewJournal builds a journal holding the last `size` events (size <= 0
// falls back to DefaultJournalSize).
func NewJournal(size int) *Journal {
	if size <= 0 {
		size = DefaultJournalSize
	}
	return &Journal{start: time.Now(), ring: make([]Event, 0, size)}
}

// Record stamps the event with the next sequence number and a monotonic
// timestamp, then appends it, evicting the oldest event if the ring is full.
func (j *Journal) Record(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e.Seq = j.next
	e.AtNs = time.Since(j.start).Nanoseconds()
	j.next++
	if len(j.ring) < cap(j.ring) {
		j.ring = append(j.ring, e)
		return
	}
	// Full: overwrite in place at the wrap position, avoiding any slide.
	j.ring[e.Seq%uint64(cap(j.ring))] = e
	j.dropped++
}

// Events returns the retained events in sequence order (oldest first).
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, len(j.ring))
	if len(j.ring) < cap(j.ring) {
		return append(out, j.ring...)
	}
	// The ring has wrapped: the oldest entry sits at next % cap.
	c := uint64(cap(j.ring))
	for i := uint64(0); i < c; i++ {
		out = append(out, j.ring[(j.next+i)%c])
	}
	return out
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.ring)
}

// Cap returns the ring capacity.
func (j *Journal) Cap() int { return cap(j.ring) }

// Total returns how many events were ever recorded (== the next Seq).
func (j *Journal) Total() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Dropped returns how many events the bounded ring has evicted.
func (j *Journal) Dropped() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}
