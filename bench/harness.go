package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"
)

// harness owns the clock: every timed piece of work goes through timed(),
// which brackets it with the probe, and (in a traced run) through
// begin/end, which record a span around each call into a layer.
type harness struct {
	probe  *probe
	last   time.Duration // the probe reading taken right after the previous timed call; 0 = stale
	probes []time.Duration
	epoch  time.Time // span timestamps are ns since this instant
	spans  []span    // nil unless tracing
	on     bool      // spans are recorded right now (traced runs alternate rounds)
}

func newHarness(trace bool) *harness {
	h := &harness{probe: newProbe(), epoch: time.Now(), on: trace}
	if trace {
		h.spans = make([]span, 0, 1<<16) // a traced run's appends should not be its allocations
	}
	return h
}

// timing is one timed piece of work: its wall time and the machine factor
// m = mean(probe before, probe after) / probeRefNs that was in force.
// m > 1 means the machine was slower than the reference.
type timing struct {
	raw time.Duration
	m   float64
}

// norm is the duration at reference machine speed.
func (t timing) norm() float64 { return float64(t.raw) / t.m }

func (h *harness) readProbe() time.Duration {
	d := h.probe.read()
	h.probes = append(h.probes, d)
	return d
}

// timed runs fn between two probe readings. Back-to-back timed calls share
// the reading between them; stale() forces a fresh one after untimed work.
func (h *harness) timed(fn func()) timing {
	before := h.last
	if before == 0 {
		before = h.readProbe()
	}
	first := len(h.spans)
	start := time.Now()
	fn()
	raw := time.Since(start)
	h.last = h.readProbe()
	t := timing{raw: raw, m: float64(before+h.last) / 2 / probeRefNs}
	for i := first; i < len(h.spans); i++ {
		h.spans[i].M = t.m // every span carries the machine factor of its bracket
	}
	return t
}

// stale marks the last probe reading as too old to bracket the next timed call.
func (h *harness) stale() { h.last = 0 }

// span is one call the harness made into a layer.
type span struct {
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Parent int     `json:"parent"` // index into the span list, -1 = root
	Round  int     `json:"round"`  // timed round the call belongs to, -1 = set-up or lab
	M      float64 `json:"m"`      // machine factor in force; (end-start)/m is the duration at reference speed
}

// begin opens a span and returns its index (-1 when not recording).
func (h *harness) begin(name string, parent, round int) int {
	if !h.on {
		return -1
	}
	h.spans = append(h.spans, span{Name: name, Start: int64(time.Since(h.epoch)), Parent: parent, Round: round})
	return len(h.spans) - 1
}

func (h *harness) end(id int) {
	if id >= 0 {
		h.spans[id].End = int64(time.Since(h.epoch))
	}
}

// spanMedianUs is the median duration in µs, at reference machine speed, of
// the spans with this name: those of the timed phase when there are any,
// else those of set-up and the lab (NaN when there are none at all).
func (h *harness) spanMedianUs(name string) float64 {
	var timed, other []float64
	for i := range h.spans {
		if sp := &h.spans[i]; sp.Name == name {
			us := float64(sp.End-sp.Start) / sp.M / 1e3
			if sp.Round >= 0 {
				timed = append(timed, us)
			} else {
				other = append(other, us)
			}
		}
	}
	if len(timed) > 0 {
		return median(timed)
	}
	return median(other)
}

func (h *harness) writeSpans(path string) error {
	b, err := json.Marshal(h.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between order statistics; NaN for an empty sample. v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }
