package sketch

import "math"

// alpha returns the HLL bias-correction constant for m registers.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	if m < 16 {
		return 0.673
	}
	return 0.7213 / (1 + 1.079/float64(m))
}

// HLLEstimateFromRanks computes the HyperLogLog estimate (Flajolet et al.)
// from a rank register file: the bias-corrected harmonic mean
// α_m · m² / Σ 2^{−M_j} with the standard small-range (linear counting) and
// large-range corrections. This is the control-plane half FlyMon runs after
// reading a CMU's register words (the data plane tracked ranks with the MAX
// op). A compressed key is 32 bits wide whatever the bucket count, so the
// large-range correction is for a 2^32 hash space.
func HLLEstimateFromRanks(regs []uint32) float64 {
	m := float64(len(regs))
	if m == 0 {
		return 0
	}
	var sum float64
	zeros := 0
	for _, r := range regs {
		sum += math.Pow(2, -float64(r))
		if r == 0 {
			zeros++
		}
	}
	est := alpha(len(regs)) * m * m / sum
	const full = 1 << 32
	if est <= 2.5*m && zeros > 0 {
		est = LinearCountingFromZeros(zeros, len(regs))
	} else if est > full/30 {
		est = -full * math.Log(1-est/full)
	}
	return est
}

// LinearCountingFromZeros is the Linear Counting estimator (Whang et al.):
// keys hashed into m bits (or registers) of which zeros are still clear
// number about m·ln(m/zeros). A saturated array (no zeros) reads m·ln m,
// the estimate one clear bit would give. FlyMon-LinearCounting and HLL's
// small-range correction share it.
func LinearCountingFromZeros(zeros, m int) float64 {
	mf := float64(m)
	if zeros == 0 {
		return mf * math.Log(mf)
	}
	return mf * math.Log(mf/float64(zeros))
}
