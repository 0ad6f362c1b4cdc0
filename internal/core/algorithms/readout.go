package algorithms

import (
	"fmt"

	"flymon/internal/core"
	"flymon/internal/packet"
)

// Readout is a task handle bound to the buckets its typed answers read,
// and the one place each algorithm answers each question. The buckets come
// from one of two sources: the task's live registers (nil rows: atomic
// Register.Read, the switch's own queries), or a register readout — one
// row per CMU the task occupies, in core.Pipeline.ReadTask order, row i
// the task's partition of its i-th CMU — such as a frozen epoch's snapshot
// or a fleet-wide merge of them. The handle supplies only the placement
// (compressed keys, row selectors, partitions, translation), so a handle
// indexes any readout laid out like its own task.
type Readout struct {
	h         any
	rows      [][]uint32
	threshold int
}

// Bind binds handle h to rows (nil: its live registers). threshold is the
// task's detection threshold (TaskSpec.Threshold), which Reported holds
// frequency tasks to.
func Bind(h any, rows [][]uint32, threshold int) Readout {
	return Readout{h: h, rows: rows, threshold: threshold}
}

// unanswered is the error of a question the bound algorithm does not
// answer.
func (r Readout) unanswered(what string) error {
	if r.h == nil {
		return fmt.Errorf("algorithms: no task handle is bound to the rows, so they answer no %s", what)
	}
	return fmt.Errorf("algorithms: %T answers no %s", r.h, what)
}

// EstimateKey returns key k's per-key estimate: frequency (CMS, MRAC,
// SuMax(Sum), Tower, CounterBraids), maximum (SuMax(Max), MaxInterval) or
// distinct count (BeauCoup).
func (r Readout) EstimateKey(k packet.CanonicalKey) (float64, error) {
	switch h := r.h.(type) {
	case *CMSTask: // the fleet's hot path, ahead of the interface case
		return float64(h.estimate(r.rows, k)), nil
	case interface { // MRAC, SuMax, Tower, MaxInterval
		estimate([][]uint32, packet.CanonicalKey) uint32
	}:
		return float64(h.estimate(r.rows, k)), nil
	case *CounterBraidsTask:
		return float64(h.estimate(r.rows, k)), nil
	case *BeauCoupTask:
		return h.distinct(r.rows, k), nil
	}
	return 0, r.unanswered("per-key estimate")
}

// Cardinality returns a distinct-count task's whole-traffic estimate (HLL,
// LinearCounting).
func (r Readout) Cardinality() (float64, error) {
	switch h := r.h.(type) {
	case *HLLTask:
		return h.cardinality(r.rows)
	case *LinearCountingTask:
		return h.cardinality(r.rows)
	}
	return 0, r.unanswered("cardinality")
}

// Contains reports Bloom-filter membership of key k.
func (r Readout) Contains(k packet.CanonicalKey) (bool, error) {
	if h, ok := r.h.(*BloomTask); ok {
		return h.contains(r.rows, k), nil
	}
	return false, r.unanswered("membership")
}

// Reported returns the candidates a detection task reports: BeauCoup's
// coupon targets met, or a CMS or SuMax(Sum) estimate at the threshold.
func (r Readout) Reported(candidates []packet.CanonicalKey) (map[packet.CanonicalKey]bool, error) {
	switch h := r.h.(type) {
	case *BeauCoupTask:
		return h.reported(r.rows, candidates), nil
	case *CMSTask:
		return atLeast(candidates, uint32(r.threshold), func(k packet.CanonicalKey) uint32 { return h.estimate(r.rows, k) }), nil
	case *SuMaxSumTask:
		return atLeast(candidates, uint32(r.threshold), func(k packet.CanonicalKey) uint32 { return h.estimate(r.rows, k) }), nil
	}
	return nil, r.unanswered("detection report")
}

// cell reads the bucket at register index idx of the task's row i, whose
// partition mem lives on CMU cmu of group g: from the readout when rows is
// set (partition-relative), else from the live register.
func cell(rows [][]uint32, i int, g *core.Group, cmu int, mem core.MemRange, idx uint32) uint32 {
	if rows != nil {
		return rows[i][idx-uint32(mem.Base)]
	}
	return g.CMU(cmu).Register().Read(idx)
}

// partition returns the task's whole row i: the readout's row, or a copy
// of the live partition on cmu.
func partition(rows [][]uint32, i int, cmu *core.CMU, taskID int) ([]uint32, error) {
	if rows != nil {
		return rows[i], nil
	}
	return cmu.ReadTask(taskID)
}

// atLeast returns the candidates whose estimate meets the threshold.
func atLeast(candidates []packet.CanonicalKey, threshold uint32, estimate func(packet.CanonicalKey) uint32) map[packet.CanonicalKey]bool {
	out := make(map[packet.CanonicalKey]bool)
	for _, k := range candidates {
		if estimate(k) >= threshold {
			out[k] = true
		}
	}
	return out
}
