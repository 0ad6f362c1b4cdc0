package sketch

import (
	"sort"

	"flymon/internal/hashing"
	"flymon/internal/packet"
)

// CountSketch (Charikar et al.) is the signed-counter sketch UnivMon builds
// on: d rows of w counters; each key gets a ±1 sign per row and the
// estimate is the median of sign-corrected counters, an unbiased estimator
// (unlike CMS's overestimate).
type CountSketch struct {
	spec packet.KeySpec
	d, w int
	rows [][]int64
	hash *hashing.Family // index hashes; sign derived from a disjoint bit
}

// NewCountSketch builds a d×w Count Sketch keyed by spec.
func NewCountSketch(spec packet.KeySpec, d, w int) *CountSketch {
	w = ceilPow2(w)
	s := &CountSketch{spec: spec, d: d, w: w, hash: hashing.NewFamily(d, spec)}
	s.rows = make([][]int64, d)
	backing := make([]int64, d*w)
	for j := range s.rows {
		s.rows[j], backing = backing[:w], backing[w:]
	}
	return s
}

// AddKey adds v for a canonical key.
func (s *CountSketch) AddKey(k packet.CanonicalKey, v int64) {
	for j := 0; j < s.d; j++ {
		h := s.hash.HashBytes(j, k[:])
		idx := h & uint32(s.w-1)
		s.rows[j][idx] += sign(h) * v
	}
}

// sign derives ±1 from the hash's top bit, which the w-mask never touches.
func sign(h uint32) int64 {
	if h&0x8000_0000 != 0 {
		return 1
	}
	return -1
}

// EstimateKey is Estimate for a canonical key.
func (s *CountSketch) EstimateKey(k packet.CanonicalKey) int64 {
	vals := make([]int64, s.d)
	for j := 0; j < s.d; j++ {
		h := s.hash.HashBytes(j, k[:])
		idx := h & uint32(s.w-1)
		vals[j] = sign(h) * s.rows[j][idx]
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	var med int64
	if s.d%2 == 1 {
		med = vals[s.d/2]
	} else {
		med = (vals[s.d/2-1] + vals[s.d/2]) / 2
	}
	if med < 0 {
		return 0
	}
	return med
}
