package algorithms

import (
	"fmt"
	"math/bits"

	"flymon/internal/core"
	"flymon/internal/dataplane"
	"flymon/internal/packet"
	"flymon/internal/sketch"
)

// BloomTask is a FlyMon Bloom filter: d CMUs running AND-OR's OR branch.
//
// With Packed (the §4 optimization evaluated in Fig. 14g), the key locates
// a bucket while p1 — a second sub-part of the compressed key — selects one
// bit inside the bucket via the preparation stage's one-hot mapping, so all
// bucket bits are usable. Without Packed, each bucket stores a single
// membership bit in its LSB, wasting the rest of the uniform bucket width.
type BloomTask struct {
	Group  *core.Group
	TaskID int
	Unit   int
	Base   int // first CMU index
	D      int
	Rows   []core.MemRange
	Method core.TranslationMethod
	Packed bool
	width  int
}

// InstallBloom installs a FlyMon Bloom filter on group g over `key`. The
// optional trailing argument is the first CMU index.
func InstallBloom(g *core.Group, taskID int, filter packet.Filter, key packet.KeySpec,
	d int, packed bool, rows []core.MemRange, at ...int) (*BloomTask, error) {
	base := baseCMU(at)
	if d < 1 || d > g.CMUs() {
		return nil, fmt.Errorf("algorithms: Bloom depth %d exceeds group's %d CMUs", d, g.CMUs())
	}
	rows, err := checkRows(g, rows, base, d)
	if err != nil {
		return nil, err
	}
	unit, err := EnsureUnit(g, key)
	if err != nil {
		return nil, err
	}
	width := g.CMU(base).Register().BitWidth()
	t := &BloomTask{Group: g, TaskID: taskID, Unit: unit, Base: base, D: d, Rows: rows,
		Method: core.TCAMBased, Packed: packed, width: width}
	for i := 0; i < d; i++ {
		rule := &core.Rule{
			TaskID:      taskID,
			Filter:      filter,
			Key:         rowSelector(unit, base+i),
			P1:          core.Const(1),
			P2:          core.Const(1), // AND-OR: p2 ≠ 0 selects the OR branch
			Mem:         rows[i],
			Translation: t.Method,
			Op:          dataplane.OpAndOr,
		}
		if packed {
			// p1 = a different sub-part of the compressed key; the
			// preparation stage one-hot encodes it into a bucket bit.
			rule.P1 = core.CompressedKey(t.bitSelector(base + i))
			rule.Prep = core.Transform{Kind: core.TransformBitSelect, Width: width}
		}
		if err := g.CMU(base + i).InstallRule(rule); err != nil {
			t.Uninstall()
			return nil, err
		}
	}
	return t, nil
}

// bitSelector picks the compressed-key sub-part used for bit selection in
// row i: offset half a word away from the indexing sub-part.
func (t *BloomTask) bitSelector(row int) core.Selector {
	return core.FullKey(t.Unit).SubRange(rowRotation*row+16, 32)
}

// ContainsKey reports whether canonical key k is (possibly falsely) in the
// filter, by control-plane readout.
func (t *BloomTask) ContainsKey(k packet.CanonicalKey) bool {
	keys := make([]uint32, t.Group.Units())
	keys[t.Unit] = t.Group.HashKey(t.Unit, k)
	for i := 0; i < t.D; i++ {
		idx := core.Translate(rowSelector(t.Unit, t.Base+i).Resolve(keys), t.Rows[i], t.Method)
		bucket := t.Group.CMU(t.Base + i).Register().Read(idx)
		if t.Packed {
			bit := uint32(1) << (t.bitSelector(t.Base+i).Resolve(keys) % uint32(t.width))
			if bucket&bit == 0 {
				return false
			}
		} else if bucket&1 == 0 {
			return false
		}
	}
	return true
}

// EffectiveBits returns the membership bits the task actually uses: all
// bucket bits when packed, one per bucket otherwise.
func (t *BloomTask) EffectiveBits() int {
	total := 0
	for _, r := range t.Rows {
		if t.Packed {
			total += r.Buckets * t.width
		} else {
			total += r.Buckets
		}
	}
	return total
}

// MemoryBytes returns the register memory the task occupies (the full
// uniform-width buckets either way — that is the point of Fig. 14g).
func (t *BloomTask) MemoryBytes() int {
	total := 0
	for _, r := range t.Rows {
		total += r.Buckets * t.width / 8
	}
	return total
}

// Uninstall removes the task's rules.
func (t *BloomTask) Uninstall() {
	for i := 0; i < t.Group.CMUs(); i++ {
		t.Group.CMU(i).RemoveRule(t.TaskID)
	}
}

// LinearCountingTask is FlyMon-LinearCounting: data-plane-identical to a
// packed d=1 FlyMon Bloom filter; the control plane estimates cardinality
// from the zero-bit fraction (Appendix D).
type LinearCountingTask struct {
	*BloomTask
}

// InstallLinearCounting installs a FlyMon-LinearCounting task on group g.
// The optional trailing argument selects the CMU.
func InstallLinearCounting(g *core.Group, taskID int, filter packet.Filter,
	key packet.KeySpec, rows []core.MemRange, at ...int) (*LinearCountingTask, error) {
	t, err := InstallBloom(g, taskID, filter, key, 1, true, rows, at...)
	if err != nil {
		return nil, err
	}
	return &LinearCountingTask{BloomTask: t}, nil
}

// Estimate returns the Linear Counting cardinality estimate
// n̂ = m·ln(m/zeros) over the task's bit array.
func (t *LinearCountingTask) Estimate() (float64, error) {
	buckets, err := t.Group.CMU(t.Base).ReadTask(t.TaskID)
	if err != nil {
		return 0, err
	}
	m := len(buckets) * t.width
	zeros := m
	for _, b := range buckets {
		zeros -= bits.OnesCount32(b)
	}
	return sketch.LinearCountingFromZeros(zeros, m), nil
}

// ProbeKey returns, per row, the register index and the bit mask the
// filter tests for canonical key k — the readout primitive network-wide
// (merged) membership checks build on.
func (t *BloomTask) ProbeKey(k packet.CanonicalKey) (indices, masks []uint32) {
	keys := make([]uint32, t.Group.Units())
	keys[t.Unit] = t.Group.HashKey(t.Unit, k)
	indices = make([]uint32, t.D)
	masks = make([]uint32, t.D)
	for i := 0; i < t.D; i++ {
		indices[i] = core.Translate(rowSelector(t.Unit, t.Base+i).Resolve(keys), t.Rows[i], t.Method)
		if t.Packed {
			masks[i] = 1 << (t.bitSelector(t.Base+i).Resolve(keys) % uint32(t.width))
		} else {
			masks[i] = 1
		}
	}
	return indices, masks
}
