package algorithms

import (
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
	rowSet
	Packed bool
	width  int
}

// InstallBloom installs a FlyMon Bloom filter on group g over `key`. The
// optional trailing argument is the first CMU index.
func InstallBloom(g *core.Group, taskID int, filter packet.Filter, key packet.KeySpec,
	d int, packed bool, rows []core.MemRange, at ...int) (*BloomTask, error) {
	rs, err := newRowSet("Bloom", g, taskID, key, d, rows, at)
	if err != nil {
		return nil, err
	}
	width := g.CMU(rs.Base).Register().BitWidth()
	t := &BloomTask{rowSet: rs, Packed: packed, width: width}
	for i := 0; i < d; i++ {
		// AND-OR: p2 ≠ 0 selects the OR branch.
		rule := &core.Rule{Filter: filter, P1: core.Const(1), P2: core.Const(1), Op: dataplane.OpAndOr}
		if packed {
			// p1 = a different sub-part of the compressed key; the
			// preparation stage one-hot encodes it into a bucket bit.
			rule.P1 = core.CompressedKey(bitSelector(t.Unit, t.Base+i))
			rule.Prep = core.Transform{Kind: core.TransformBitSelect, Width: width}
		}
		if err := t.install(i, rule); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// bitSelector picks the compressed-key sub-part of unit used for bit
// selection in row `row`: offset half a word away from the indexing
// sub-part.
func bitSelector(unit, row int) core.Selector {
	return core.FullKey(unit).SubRange(rowRotation*row+16, 32)
}

// ContainsKey reports whether canonical key k is (possibly falsely) in the
// filter, by control-plane readout.
func (t *BloomTask) ContainsKey(k packet.CanonicalKey) bool { return t.contains(nil, k) }

// contains is the membership probe read from rows (nil: the live
// registers): every row's bucket must hold the key's bit. Like rowIndex it
// resolves the bit selectors against a one-slot stack array, so a probe
// allocates nothing.
func (t *BloomTask) contains(rows [][]uint32, k packet.CanonicalKey) bool {
	h := t.hash(k)
	keys := [1]uint32{h}
	for i := 0; i < t.D; i++ {
		bit := uint32(1)
		if t.Packed {
			bit <<= bitSelector(0, t.Base+i).Resolve(keys[:]) % uint32(t.width)
		}
		if t.read(rows, i, h)&bit == 0 {
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

// cardinality is the Linear Counting estimate over the bit array read from
// rows (nil: the live register).
func (t *LinearCountingTask) cardinality(rows [][]uint32) (float64, error) {
	buckets, err := partition(rows, 0, t.Group.CMU(t.Base), t.TaskID)
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
