package sketch

import (
	"flymon/internal/packet"
)

// ExactFrequency is the ground-truth per-flow accumulator for the Frequency
// attribute: it sums a parameter (packet count or bytes) per flow key.
type ExactFrequency struct {
	spec   packet.KeySpec
	counts map[packet.CanonicalKey]uint64
}

// NewExactFrequency creates a ground-truth frequency accumulator over spec.
func NewExactFrequency(spec packet.KeySpec) *ExactFrequency {
	return &ExactFrequency{spec: spec, counts: make(map[packet.CanonicalKey]uint64)}
}

// AddPacket increments the packet count of p's flow.
func (e *ExactFrequency) AddPacket(p *packet.Packet) { e.Add(p, 1) }

// Add adds v to p's flow counter.
func (e *ExactFrequency) Add(p *packet.Packet, v uint64) {
	e.counts[e.spec.Extract(p)] += v
}

// Counts exposes the per-flow ground truth.
func (e *ExactFrequency) Counts() map[packet.CanonicalKey]uint64 { return e.counts }

// Flows returns the number of distinct flows observed.
func (e *ExactFrequency) Flows() int { return len(e.counts) }

// HeavyHitters returns the flows with count ≥ threshold.
func (e *ExactFrequency) HeavyHitters(threshold uint64) map[packet.CanonicalKey]bool {
	hh := make(map[packet.CanonicalKey]bool)
	for k, c := range e.counts {
		if c >= threshold {
			hh[k] = true
		}
	}
	return hh
}

// ExactDistinct is the ground-truth accumulator for the Distinct attribute:
// for each key it counts distinct parameter values (e.g. distinct SrcIPs per
// DstIP for DDoS-victim detection).
type ExactDistinct struct {
	keySpec   packet.KeySpec
	paramSpec packet.KeySpec
	sets      map[packet.CanonicalKey]map[packet.CanonicalKey]bool
}

// NewExactDistinct creates a ground-truth distinct accumulator: distinct
// paramSpec values per keySpec value.
func NewExactDistinct(keySpec, paramSpec packet.KeySpec) *ExactDistinct {
	return &ExactDistinct{
		keySpec:   keySpec,
		paramSpec: paramSpec,
		sets:      make(map[packet.CanonicalKey]map[packet.CanonicalKey]bool),
	}
}

// AddPacket records p's parameter under p's key.
func (e *ExactDistinct) AddPacket(p *packet.Packet) {
	k := e.keySpec.Extract(p)
	s := e.sets[k]
	if s == nil {
		s = make(map[packet.CanonicalKey]bool)
		e.sets[k] = s
	}
	s[e.paramSpec.Extract(p)] = true
}

// Count returns the distinct count for key k.
func (e *ExactDistinct) Count(k packet.CanonicalKey) int { return len(e.sets[k]) }

// Counts returns the distinct count per key.
func (e *ExactDistinct) Counts() map[packet.CanonicalKey]uint64 {
	out := make(map[packet.CanonicalKey]uint64, len(e.sets))
	for k, s := range e.sets {
		out[k] = uint64(len(s))
	}
	return out
}

// Over returns the keys whose distinct count ≥ threshold (DDoS victims,
// super-spreaders, port scanners).
func (e *ExactDistinct) Over(threshold int) map[packet.CanonicalKey]bool {
	out := make(map[packet.CanonicalKey]bool)
	for k, s := range e.sets {
		if len(s) >= threshold {
			out[k] = true
		}
	}
	return out
}

// ExactCardinality is the ground truth for single-key distinct counting
// (flow cardinality): the number of distinct flow keys in the traffic.
type ExactCardinality struct {
	spec packet.KeySpec
	seen map[packet.CanonicalKey]bool
}

// NewExactCardinality creates a cardinality accumulator over spec.
func NewExactCardinality(spec packet.KeySpec) *ExactCardinality {
	return &ExactCardinality{spec: spec, seen: make(map[packet.CanonicalKey]bool)}
}

// AddPacket records p's flow key.
func (e *ExactCardinality) AddPacket(p *packet.Packet) { e.seen[e.spec.Extract(p)] = true }

// Cardinality returns the number of distinct keys observed.
func (e *ExactCardinality) Cardinality() int { return len(e.seen) }

// ExactMax is the ground truth for the Max attribute: the maximum parameter
// value per flow key (e.g. max queue length per flow).
type ExactMax struct {
	spec packet.KeySpec
	max  map[packet.CanonicalKey]uint32
}

// NewExactMax creates a max accumulator over spec.
func NewExactMax(spec packet.KeySpec) *ExactMax {
	return &ExactMax{spec: spec, max: make(map[packet.CanonicalKey]uint32)}
}

// Add records parameter v for p's flow.
func (e *ExactMax) Add(p *packet.Packet, v uint32) {
	k := e.spec.Extract(p)
	if v > e.max[k] {
		e.max[k] = v
	}
}

// Values returns max parameter per key as uint64 for metric helpers.
func (e *ExactMax) Values() map[packet.CanonicalKey]uint64 {
	out := make(map[packet.CanonicalKey]uint64, len(e.max))
	for k, v := range e.max {
		out[k] = uint64(v)
	}
	return out
}

// ExactMaxInterval is the ground truth for the maximum packet inter-arrival
// time per flow.
type ExactMaxInterval struct {
	spec packet.KeySpec
	last map[packet.CanonicalKey]uint64
	max  map[packet.CanonicalKey]uint64
}

// NewExactMaxInterval creates a max-interval accumulator over spec.
func NewExactMaxInterval(spec packet.KeySpec) *ExactMaxInterval {
	return &ExactMaxInterval{
		spec: spec,
		last: make(map[packet.CanonicalKey]uint64),
		max:  make(map[packet.CanonicalKey]uint64),
	}
}

// AddPacket records p's arrival and updates its flow's maximum interval.
func (e *ExactMaxInterval) AddPacket(p *packet.Packet) {
	k := e.spec.Extract(p)
	if prev, ok := e.last[k]; ok {
		iv := p.TimestampNs - prev
		if iv > e.max[k] {
			e.max[k] = iv
		}
	} else {
		e.max[k] = 0 // first packet: interval defined as 0
	}
	e.last[k] = p.TimestampNs
}

// Values returns the max inter-arrival per flow (flows with a single packet
// report 0).
func (e *ExactMaxInterval) Values() map[packet.CanonicalKey]uint64 {
	out := make(map[packet.CanonicalKey]uint64, len(e.max))
	for k, v := range e.max {
		out[k] = v
	}
	return out
}

// ExactMembership is the ground truth for the Existence attribute: a plain
// set of flow keys.
type ExactMembership struct {
	spec packet.KeySpec
	set  map[packet.CanonicalKey]bool
}

// NewExactMembership creates a membership set over spec.
func NewExactMembership(spec packet.KeySpec) *ExactMembership {
	return &ExactMembership{spec: spec, set: make(map[packet.CanonicalKey]bool)}
}

// Insert adds p's key to the set.
func (e *ExactMembership) Insert(p *packet.Packet) { e.set[e.spec.Extract(p)] = true }

// Contains reports whether p's key is in the set.
func (e *ExactMembership) Contains(p *packet.Packet) bool { return e.set[e.spec.Extract(p)] }

// Size returns the set cardinality.
func (e *ExactMembership) Size() int { return len(e.set) }
