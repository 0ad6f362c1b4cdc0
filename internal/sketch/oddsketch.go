package sketch

import "math"

// OddSketchDifferenceFromOnes inverts an odd sketch's popcount into a
// symmetric-difference estimate. An odd sketch (Mitzenmacher et al., WWW
// '14) is a parity bitmap: inserting an element toggles one bit, and the XOR
// of two sketches is the sketch of the sets' symmetric difference, whose
// size is recoverable from its set bits: |AΔB| ≈ −(m/2)·ln(1 − 2·ones/m).
// This is the control-plane half of the CMU composition
// (algorithms.OddSketchTask), run on the register words read back.
func OddSketchDifferenceFromOnes(ones, mBits int) float64 {
	m := float64(mBits)
	x := 1 - 2*float64(ones)/m
	if x <= 0 {
		// Saturated: half the bits disagree; the estimate diverges.
		return m * math.Log(m) / 2
	}
	return -m / 2 * math.Log(x)
}
