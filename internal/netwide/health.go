package netwide

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"flymon/internal/telemetry"
)

// SwitchState classifies a remote switch's control-channel reachability.
type SwitchState int

const (
	// SwitchHealthy: the last operation succeeded.
	SwitchHealthy SwitchState = iota
	// SwitchDegraded: recent failures, but fewer than the down threshold —
	// the switch may be flapping or slow.
	SwitchDegraded
	// SwitchDown: at or past the consecutive-failure threshold; queries
	// should expect this switch to be missing from merges.
	SwitchDown
)

func (s SwitchState) String() string {
	switch s {
	case SwitchHealthy:
		return "healthy"
	case SwitchDegraded:
		return "degraded"
	case SwitchDown:
		return "down"
	default:
		return fmt.Sprintf("SwitchState(%d)", int(s))
	}
}

// SwitchHealth is one switch's control-channel health snapshot.
type SwitchHealth struct {
	Index               int
	Addr                string
	State               SwitchState
	ConsecutiveFailures int
	TotalFailures       int
	LastError           string
	LastSuccess         time.Time
	LastFailure         time.Time
}

// healthTracker aggregates per-switch operation outcomes. A switch is
// degraded after its first consecutive failure and down after downAfter of
// them; any success resets it to healthy.
type healthTracker struct {
	mu        sync.Mutex
	downAfter int
	entries   []SwitchHealth
	// tele, when set, counts state *transitions* (not per-op outcomes):
	// a switch flapping healthy↔down shows up as a high transition rate.
	tele *telemetry.FleetStats
}

func newHealthTracker(n, downAfter int, addrs []string) *healthTracker {
	t := &healthTracker{downAfter: downAfter, entries: make([]SwitchHealth, n)}
	for i := range t.entries {
		t.entries[i].Index = i
		if i < len(addrs) {
			t.entries[i].Addr = addrs[i]
		}
	}
	return t
}

// record folds one operation outcome into switch i's health and counts the
// state transition it causes.
func (t *healthTracker) record(i int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= len(t.entries) {
		return
	}
	e := &t.entries[i]
	was := e.State
	if err == nil {
		e.ConsecutiveFailures = 0
		e.LastError = ""
		e.LastSuccess = time.Now()
	} else {
		e.ConsecutiveFailures++
		e.TotalFailures++
		e.LastError = err.Error()
		e.LastFailure = time.Now()
	}
	switch {
	case e.ConsecutiveFailures == 0:
		e.State = SwitchHealthy
	case e.ConsecutiveFailures >= t.downAfter:
		e.State = SwitchDown
	default:
		e.State = SwitchDegraded
	}
	if t.tele == nil || e.State == was {
		return
	}
	switch e.State {
	case SwitchHealthy:
		t.tele.ToHealthy.Add(1)
	case SwitchDegraded:
		t.tele.ToDegraded.Add(1)
	case SwitchDown:
		t.tele.ToDown.Add(1)
	}
}

// snapshot copies the health table.
func (t *healthTracker) snapshot() []SwitchHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SwitchHealth, len(t.entries))
	copy(out, t.entries)
	return out
}

// QueryReport annotates a fleet-wide result with which switches
// contributed. A partial report means the value is a merge over a subset
// of switches — for additive sketch merges that is a valid lower bound,
// which callers can surface instead of failing the whole query.
//
// It also carries the epoch the merge was pinned to and the stragglers:
// switches that were reachable but had not completed that epoch, left out
// by the skip/partial straggler policy (an unreachable switch is a Failed
// entry, not a straggler). Cached marks
// an answer read from the fleet's stored merge of that epoch instead of
// a fresh fan-out; a cached report is always complete, and its
// Contributed slice is shared — read-only.
type QueryReport struct {
	Contributed []int          // switch indices merged into the result
	Failed      map[int]string // switch index → error, for the rest
	Epoch       int            // epoch the merge was pinned to
	Stragglers  map[int]int    // switch index → its epoch, for epoch-behind switches
	Cached      bool           // served from the epoch artifact store, no RPC issued
}

// Partial reports whether any switch was left out of the merge.
func (r QueryReport) Partial() bool { return len(r.Failed)+len(r.Stragglers) > 0 }

// String renders "3/4 switches (down: 2)"-style summaries.
func (r QueryReport) String() string {
	total := len(r.Contributed) + len(r.Failed) + len(r.Stragglers)
	s := fmt.Sprintf("%d/%d switches", len(r.Contributed), total)
	if r.Epoch > 0 {
		s += fmt.Sprintf(" @ epoch %d", r.Epoch)
	}
	if r.Cached {
		s += " (cached)"
	}
	if len(r.Failed) > 0 {
		missing := make([]int, 0, len(r.Failed))
		for i := range r.Failed {
			missing = append(missing, i)
		}
		sort.Ints(missing)
		parts := make([]string, len(missing))
		for j, i := range missing {
			parts[j] = fmt.Sprintf("%d", i)
		}
		s += fmt.Sprintf(" (missing: %s)", strings.Join(parts, ","))
	}
	if len(r.Stragglers) > 0 {
		behind := make([]int, 0, len(r.Stragglers))
		for i := range r.Stragglers {
			behind = append(behind, i)
		}
		sort.Ints(behind)
		parts := make([]string, len(behind))
		for j, i := range behind {
			parts[j] = fmt.Sprintf("%d@%d", i, r.Stragglers[i])
		}
		s += fmt.Sprintf(" (behind: %s)", strings.Join(parts, ","))
	}
	return s
}

// PartialFailureError is a structured fleet-operation failure naming every
// switch that failed, so the caller can retry exactly the stragglers.
type PartialFailureError struct {
	Op     string
	Task   string
	Failed map[int]error // switch index → error
	Total  int           // fleet size
}

func (e *PartialFailureError) Error() string {
	idx := make([]int, 0, len(e.Failed))
	for i := range e.Failed {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	parts := make([]string, len(idx))
	for j, i := range idx {
		parts[j] = fmt.Sprintf("switch %d: %v", i, e.Failed[i])
	}
	return fmt.Sprintf("netwide: %s of %q failed on %d/%d switches: %s",
		e.Op, e.Task, len(e.Failed), e.Total, strings.Join(parts, "; "))
}

// Stragglers returns the failed switch indices in order.
func (e *PartialFailureError) Stragglers() []int {
	idx := make([]int, 0, len(e.Failed))
	for i := range e.Failed {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}
