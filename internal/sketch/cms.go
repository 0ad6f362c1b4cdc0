package sketch

import (
	"fmt"

	"flymon/internal/hashing"
	"flymon/internal/packet"
)

// CMS is a Count-Min Sketch (Cormode & Muthukrishnan): d rows of w 32-bit
// counters. Add adds a parameter to one counter per row; Estimate returns
// the minimum across rows, an overestimate with classic (ε, δ) guarantees.
type CMS struct {
	d, w int
	rows [][]uint32
	hash *hashing.Family
}

// NewCMS builds a d×w Count-Min Sketch keyed by spec. w is rounded up to a
// power of two so indexing is a mask (as on hardware).
func NewCMS(spec packet.KeySpec, d, w int) *CMS {
	if d <= 0 || w <= 0 {
		panic(fmt.Sprintf("sketch: invalid CMS dimensions d=%d w=%d", d, w))
	}
	w = ceilPow2(w)
	s := &CMS{d: d, w: w, hash: hashing.NewFamily(d, spec)}
	s.rows = make([][]uint32, d)
	backing := make([]uint32, d*w)
	for j := range s.rows {
		s.rows[j], backing = backing[:w], backing[w:]
	}
	return s
}

// Add adds v to the flow of packet p.
func (s *CMS) Add(p *packet.Packet, v uint32) {
	for j := 0; j < s.d; j++ {
		idx := s.hash.Hash(j, p) & uint32(s.w-1)
		s.rows[j][idx] = satAdd32(s.rows[j][idx], v)
	}
}

// AddPacket counts packet p (parameter = 1).
func (s *CMS) AddPacket(p *packet.Packet) { s.Add(p, 1) }

// EstimateKey returns the estimate for a canonical key (used when scoring
// against ground truth without re-materializing packets).
func (s *CMS) EstimateKey(k packet.CanonicalKey) uint32 {
	min := ^uint32(0)
	for j := 0; j < s.d; j++ {
		idx := s.hash.HashBytes(j, k[:]) & uint32(s.w-1)
		if c := s.rows[j][idx]; c < min {
			min = c
		}
	}
	return min
}

// Reset zeroes all counters.
func (s *CMS) Reset() {
	for _, row := range s.rows {
		clear(row)
	}
}

func satAdd32(a, b uint32) uint32 {
	c := a + b
	if c < a {
		return ^uint32(0)
	}
	return c
}

func ceilPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}
