package algorithms

import (
	"fmt"
	"math/bits"

	"flymon/internal/core"
	"flymon/internal/dataplane"
	"flymon/internal/packet"
	"flymon/internal/sketch"
)

// HLLTask is FlyMon-HLL (§4, Flow Cardinality): one CMU splitting a single
// compressed key the way HyperLogLog does — the low b bits locate a
// register bucket (stochastic averaging, via TCAM-based address
// translation) while the remaining 32−b bits are mapped to their rank ρ by
// the preparation stage's leading-zero table; the MAX operation keeps the
// largest rank per bucket. The paper prefers this MAX-based tracking over
// prior RMT HLLs' per-rank TCAM entries to save TCAM.
type HLLTask struct {
	Group  *core.Group
	TaskID int

	Unit   int
	CMU    int // CMU index hosting the register
	Mem    core.MemRange
	Method core.TranslationMethod
}

// InstallHLL installs a FlyMon-HLL task on group g counting distinct `key`
// values. mem selects the register partition (bucket count = 2^b of the
// HLL); a zero mem takes CMU 0's whole register.
func InstallHLL(g *core.Group, taskID int, filter packet.Filter, key packet.KeySpec,
	mem core.MemRange, at ...int) (*HLLTask, error) {
	cmu := baseCMU(at)
	if cmu < 0 || cmu >= g.CMUs() {
		return nil, fmt.Errorf("algorithms: HLL CMU index %d out of range", cmu)
	}
	if mem.Buckets == 0 {
		mem = core.MemRange{Base: 0, Buckets: g.CMU(cmu).Register().Size()}
	}
	b := bits.TrailingZeros32(uint32(mem.Buckets))
	if 1<<b != mem.Buckets {
		return nil, fmt.Errorf("algorithms: HLL needs a power-of-two partition, got %d", mem.Buckets)
	}
	unit, err := EnsureUnit(g, key)
	if err != nil {
		return nil, err
	}
	t := &HLLTask{Group: g, TaskID: taskID, Unit: unit, CMU: cmu, Mem: mem, Method: core.TCAMBased}
	rule := &core.Rule{
		TaskID: taskID,
		Filter: filter,
		Key:    core.FullKey(unit), // TCAM translation keeps the low b bits
		// The rank input is the key's remaining 32−b bits, left-aligned by
		// the LZRank transform's Discard.
		P1:          core.CompressedKey(core.FullKey(unit).SubRange(b, 32-b)),
		P2:          core.Const(0),
		Prep:        core.Transform{Kind: core.TransformLZRank, Discard: b},
		Mem:         mem,
		Translation: t.Method,
		Op:          dataplane.OpMax,
	}
	if err := g.CMU(cmu).InstallRule(rule); err != nil {
		return nil, err
	}
	return t, nil
}

// Estimate reads the rank registers and computes the HyperLogLog estimate.
func (t *HLLTask) Estimate() (float64, error) { return t.cardinality(nil) }

// cardinality is the HyperLogLog estimate over the ranks read from rows
// (nil: the live register).
func (t *HLLTask) cardinality(rows [][]uint32) (float64, error) {
	ranks, err := partition(rows, 0, t.Group.CMU(t.CMU), t.TaskID)
	if err != nil {
		return 0, err
	}
	return sketch.HLLEstimateFromRanks(ranks), nil
}

// MemoryBytes returns the register memory the task occupies.
func (t *HLLTask) MemoryBytes() int {
	return t.Mem.Buckets * t.Group.CMU(t.CMU).Register().BitWidth() / 8
}

// Uninstall removes the task's rule.
func (t *HLLTask) Uninstall() { t.Group.CMU(t.CMU).RemoveRule(t.TaskID) }
