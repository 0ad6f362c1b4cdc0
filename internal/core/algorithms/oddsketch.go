package algorithms

import (
	"fmt"
	"math/bits"

	"flymon/internal/core"
	"flymon/internal/dataplane"
	"flymon/internal/packet"
	"flymon/internal/sketch"
)

// OddSketchTask is FlyMon-OddSketch, the paper's §6 extension exercising
// the reserved fourth stateful-operation slot: a parity bitmap updated with
// the XOR operation, with bit packing exactly as in the Bloom-filter
// composition (key → bucket, one-hot sub-key → bit). Two tasks over the
// same geometry support traffic-set similarity queries.
//
// Every packet toggles its flow's bit, so parity tracks the per-flow
// PACKET count unless the task filter admits each flow once; for set
// semantics, feed deduplicated traffic (e.g. SYN-only filters) or compare
// symmetric differences of per-epoch first-packet streams. The comparison
// helpers below operate on raw register state, so both uses are possible.
type OddSketchTask struct {
	Group  *core.Group
	TaskID int
	Unit   int
	CMU    int
	Mem    core.MemRange
	Method core.TranslationMethod
	width  int
}

// InstallOddSketch installs a FlyMon-OddSketch task on group g over `key`.
// The optional trailing argument selects the CMU.
func InstallOddSketch(g *core.Group, taskID int, filter packet.Filter, key packet.KeySpec,
	mem core.MemRange, at ...int) (*OddSketchTask, error) {
	cmu := baseCMU(at)
	if cmu < 0 || cmu >= g.CMUs() {
		return nil, fmt.Errorf("algorithms: odd-sketch CMU index %d out of range", cmu)
	}
	if mem.Buckets == 0 {
		mem = core.MemRange{Base: 0, Buckets: g.CMU(cmu).Register().Size()}
	}
	unit, err := EnsureUnit(g, key)
	if err != nil {
		return nil, err
	}
	width := g.CMU(cmu).Register().BitWidth()
	t := &OddSketchTask{Group: g, TaskID: taskID, Unit: unit, CMU: cmu,
		Mem: mem, Method: core.TCAMBased, width: width}
	rule := &core.Rule{
		TaskID:      taskID,
		Filter:      filter,
		Key:         core.FullKey(unit),
		P1:          core.CompressedKey(core.FullKey(unit).SubRange(16, 32)),
		P2:          core.Const(0),
		Prep:        core.Transform{Kind: core.TransformBitSelect, Width: width},
		Mem:         mem,
		Translation: t.Method,
		Op:          dataplane.OpXor,
	}
	if err := g.CMU(cmu).InstallRule(rule); err != nil {
		return nil, err
	}
	return t, nil
}

// SymmetricDifference estimates the symmetric difference between this
// task's set and another same-geometry task's set.
func (t *OddSketchTask) SymmetricDifference(other *OddSketchTask) (float64, error) {
	if t.Mem.Buckets != other.Mem.Buckets || t.width != other.width {
		return 0, fmt.Errorf("algorithms: odd-sketch geometries differ")
	}
	// Comparable sketches must share the hash mapping: same group (hash
	// polynomials are per-group) and same compression unit.
	if t.Group != other.Group || t.Unit != other.Unit {
		return 0, fmt.Errorf("algorithms: odd-sketch tasks must share a group and compression unit to be comparable")
	}
	a, err := t.Group.CMU(t.CMU).ReadTask(t.TaskID)
	if err != nil {
		return 0, err
	}
	b, err := other.Group.CMU(other.CMU).ReadTask(other.TaskID)
	if err != nil {
		return 0, err
	}
	ones := 0
	for i := range a {
		ones += bits.OnesCount32(a[i] ^ b[i])
	}
	return sketch.OddSketchDifferenceFromOnes(ones, t.Mem.Buckets*t.width), nil
}

// MemoryBytes returns the register memory the task occupies.
func (t *OddSketchTask) MemoryBytes() int { return t.Mem.Buckets * t.width / 8 }

// Uninstall removes the task's rule.
func (t *OddSketchTask) Uninstall() { t.Group.CMU(t.CMU).RemoveRule(t.TaskID) }
