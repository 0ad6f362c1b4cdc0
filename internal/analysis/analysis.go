// Package analysis implements the control-plane halves of measurement
// algorithms whose data-plane state is a plain counter array: the MRAC
// Expectation-Maximization inversion of counter values into a flow-size
// distribution, and heavy changers across two epochs' readouts.
//
// Keeping these separate from the data-plane structures mirrors FlyMon's
// decomposition step (§3.1.2): only the stateful update runs on the switch;
// everything here runs after register readout.
package analysis

import "math"

// MRACDistribution inverts an MRAC counter array into an estimated
// flow-size distribution dist[s] ≈ number of flows of size s, using the
// Expectation-Maximization procedure of Kumar et al. under a Poisson
// approximation of per-counter flow collisions.
//
// maxSize caps the largest flow size modelled by EM; counters above the cap
// are attributed to single large flows (heavy-tail flows rarely collide in
// practice, and EM over huge supports is numerically pointless). iters
// bounds the EM rounds.
func MRACDistribution(counters []uint32, maxSize, iters int) map[uint64]float64 {
	m := len(counters)
	if m == 0 {
		return nil
	}
	// Histogram of counter values within the modelled support.
	hist := make(map[uint32]int)
	heavy := make(map[uint64]float64)
	zeros := 0
	maxVal := uint32(0)
	for _, c := range counters {
		if c == 0 {
			zeros++
			continue
		}
		if int(c) > maxSize {
			heavy[uint64(c)]++ // treat as an isolated large flow
			continue
		}
		hist[c]++
		if c > maxVal {
			maxVal = c
		}
	}
	if len(hist) == 0 {
		return heavy
	}

	// Initial flow-count estimate via the zero-counter fraction (the MRAC
	// paper's n̂ = m·ln(m/m0); when no counter is empty fall back to
	// counting non-zero buckets).
	var nEst float64
	if zeros > 0 {
		nEst = float64(m) * math.Log(float64(m)/float64(zeros))
	} else {
		nEst = float64(m) * 1.5
	}
	if nEst < 1 {
		nEst = 1
	}

	// φ[s] = probability a random flow has size s; initialised from the
	// naive reading (each non-zero counter is one flow of that size).
	support := int(maxVal)
	phi := make([]float64, support+1)
	var total float64
	for v, cnt := range hist {
		phi[v] += float64(cnt)
		total += float64(cnt)
	}
	for s := range phi {
		phi[s] /= total
	}

	lambda := nEst / float64(m)
	if lambda > 8 {
		lambda = 8 // heavier loads make EM numerically unstable; clamp
	}

	for it := 0; it < iters; it++ {
		phi = emRound(hist, phi, lambda)
	}

	dist := make(map[uint64]float64, len(phi))
	for s := 1; s <= support; s++ {
		if phi[s] <= 1e-12 {
			continue
		}
		dist[uint64(s)] = phi[s] * nEst
	}
	for s, n := range heavy {
		dist[s] += n
	}
	return dist
}

// emRound performs one EM iteration: for each observed counter value v it
// distributes v's probability mass across the flow-size compositions that
// could have produced it (0, 1 or 2 colliding flows — collisions of three
// or more flows in one counter are vanishingly rare at sane loads and are
// truncated, which is the standard practical simplification).
func emRound(hist map[uint32]int, phi []float64, lambda float64) []float64 {
	support := len(phi) - 1
	next := make([]float64, support+1)
	// Poisson weights for 1 and 2 flows in a bucket, conditioned on ≥1.
	p1 := lambda * math.Exp(-lambda)
	p2 := lambda * lambda / 2 * math.Exp(-lambda)
	norm := p1 + p2
	if norm <= 0 {
		return phi
	}
	p1, p2 = p1/norm, p2/norm

	var total float64
	for v, cnt := range hist {
		val := int(v)
		// Case 1: a single flow of size v.
		w1 := p1 * phiAt(phi, val)
		// Case 2: two flows of sizes s and v−s.
		var w2 float64
		pair := make([]float64, 0, val)
		for s := 1; s < val; s++ {
			w := phiAt(phi, s) * phiAt(phi, val-s)
			pair = append(pair, w)
			w2 += w
		}
		w2 *= p2
		z := w1 + w2
		if z <= 0 {
			// No explanation under current φ: re-inject as single flow.
			next[val] += float64(cnt)
			total += float64(cnt)
			continue
		}
		c := float64(cnt)
		next[val] += c * w1 / z
		total += c * w1 / z
		if w2 > 0 {
			scale := c * p2 / z
			for s := 1; s < val; s++ {
				w := pair[s-1] * scale
				if w <= 0 {
					continue
				}
				next[s] += w
				next[val-s] += w
				total += 2 * w
			}
		}
	}
	if total > 0 {
		for s := range next {
			next[s] /= total
		}
	}
	return next
}

func phiAt(phi []float64, s int) float64 {
	if s < 1 || s >= len(phi) {
		return 0
	}
	return phi[s]
}

// HeavyChangers reports the keys whose estimated frequency changed by at
// least `threshold` between two measurement epochs — the heavy-changer
// task of Table 1, computed in the control plane from two epochs' register
// readouts of the same frequency task.
func HeavyChangers[K comparable](prev, cur map[K]uint64, threshold uint64) map[K]bool {
	out := make(map[K]bool)
	seen := make(map[K]bool, len(prev)+len(cur))
	for k := range prev {
		seen[k] = true
	}
	for k := range cur {
		seen[k] = true
	}
	for k := range seen {
		a, b := prev[k], cur[k]
		var d uint64
		if a > b {
			d = a - b
		} else {
			d = b - a
		}
		if d >= threshold {
			out[k] = true
		}
	}
	return out
}
