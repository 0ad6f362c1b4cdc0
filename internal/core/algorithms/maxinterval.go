package algorithms

import (
	"fmt"

	"flymon/internal/core"
	"flymon/internal/dataplane"
	"flymon/internal/packet"
)

// MaxIntervalTask is the combinatorial maximum inter-arrival-time task (§4):
// three CMUs from three CMU Groups. The first is a Bloom filter that
// classifies the flow as new or seen; the second tracks the last arrival
// time with MAX (its SALU read bus exposes the previous arrival); the third
// computes the interval in its preparation stage (now − previous, forced to
// 0 for new flows) and keeps the per-flow maximum with MAX.
//
// The three groups must be adjacent in pipeline order with no intervening
// task using the result bus — the same PHV-exclusivity a hardware
// deployment would reserve for a combinatorial task.
type MaxIntervalTask struct {
	Groups [3]*core.Group // bloom, arrival, interval
	TaskID int
	Units  [3]int
	Rows   [3]core.MemRange
	Method core.TranslationMethod
}

// InstallMaxInterval installs the task across three groups. rows may be nil
// (whole registers, CMU 0 of each group).
func InstallMaxInterval(groups [3]*core.Group, taskID int, filter packet.Filter,
	key packet.KeySpec, rows []core.MemRange) (*MaxIntervalTask, error) {
	var mems [3]core.MemRange
	if rows == nil {
		for i, g := range groups {
			mems[i] = core.MemRange{Base: 0, Buckets: g.CMU(0).Register().Size()}
		}
	} else {
		if len(rows) != 3 {
			return nil, fmt.Errorf("algorithms: max-interval needs 3 rows, got %d", len(rows))
		}
		copy(mems[:], rows)
	}
	t := &MaxIntervalTask{Groups: groups, TaskID: taskID, Rows: mems, Method: core.TCAMBased}
	for i, g := range groups {
		unit, err := EnsureUnit(g, key)
		if err != nil {
			t.Uninstall()
			return nil, err
		}
		t.Units[i] = unit
	}

	bloomWidth := groups[0].CMU(0).Register().BitWidth()
	bloom := &core.Rule{
		TaskID:      taskID,
		Filter:      filter,
		Key:         core.FullKey(t.Units[0]),
		P1:          core.CompressedKey(core.FullKey(t.Units[0]).SubRange(16, 32)),
		P2:          core.Const(1),
		Prep:        core.Transform{Kind: core.TransformBitSelect, Width: bloomWidth},
		Mem:         t.Rows[0],
		Translation: t.Method,
		Op:          dataplane.OpAndOr,
		DetectNew:   true,
	}
	if err := groups[0].CMU(0).InstallRule(bloom); err != nil {
		t.Uninstall()
		return nil, err
	}

	arrival := &core.Rule{
		TaskID:      taskID,
		Filter:      filter,
		Key:         core.FullKey(t.Units[1]),
		P1:          core.TimestampUs(),
		P2:          core.Const(0),
		Mem:         t.Rows[1],
		Translation: t.Method,
		Op:          dataplane.OpMax,
	}
	if err := groups[1].CMU(0).InstallRule(arrival); err != nil {
		t.Uninstall()
		return nil, err
	}

	interval := &core.Rule{
		TaskID:      taskID,
		Filter:      filter,
		Key:         core.FullKey(t.Units[2]),
		P1:          core.TimestampUs(),
		P2:          core.Const(0),
		Prep:        core.Transform{Kind: core.TransformIntervalSub},
		Mem:         t.Rows[2],
		Translation: t.Method,
		Op:          dataplane.OpMax,
	}
	if err := groups[2].CMU(0).InstallRule(interval); err != nil {
		t.Uninstall()
		return nil, err
	}
	return t, nil
}

// EstimateKey returns the tracked maximum inter-arrival time (µs) for
// canonical key k.
func (t *MaxIntervalTask) EstimateKey(k packet.CanonicalKey) uint32 { return t.estimate(nil, k) }

// estimate reads the interval row, the third of rows (nil: the live
// registers).
func (t *MaxIntervalTask) estimate(rows [][]uint32, k packet.CanonicalKey) uint32 {
	g := t.Groups[2]
	idx := rowIndex(g.HashKey(t.Units[2], k), 0, t.Rows[2], t.Method)
	return cell(rows, 2, g, 0, t.Rows[2], idx)
}

// MemoryBytes returns the task's register memory footprint across all
// three CMUs.
func (t *MaxIntervalTask) MemoryBytes() int {
	total := 0
	for i, g := range t.Groups {
		total += t.Rows[i].Buckets * g.CMU(0).Register().BitWidth() / 8
	}
	return total
}

// Uninstall removes the task's rules from every group.
func (t *MaxIntervalTask) Uninstall() {
	for _, g := range t.Groups {
		if g == nil {
			continue
		}
		for i := 0; i < g.CMUs(); i++ {
			g.CMU(i).RemoveRule(t.TaskID)
		}
	}
}

// MaxIntervalEnsemble runs d independent MaxIntervalTask instances and
// reports the minimum estimate across instances, trimming hash-collision
// inflation (Fig. 14f's d=2/d=3 curves).
type MaxIntervalEnsemble struct {
	Instances []*MaxIntervalTask
}

// InstallMaxIntervalEnsemble installs d instances over 3·d groups.
func InstallMaxIntervalEnsemble(groups []*core.Group, taskIDBase int, filter packet.Filter,
	key packet.KeySpec, d int) (*MaxIntervalEnsemble, error) {
	if len(groups) < 3*d {
		return nil, fmt.Errorf("algorithms: max-interval ensemble d=%d needs %d groups, got %d", d, 3*d, len(groups))
	}
	e := &MaxIntervalEnsemble{}
	for j := 0; j < d; j++ {
		inst, err := InstallMaxInterval([3]*core.Group{groups[3*j], groups[3*j+1], groups[3*j+2]},
			taskIDBase+j, filter, key, nil)
		if err != nil {
			e.Uninstall()
			return nil, err
		}
		e.Instances = append(e.Instances, inst)
	}
	return e, nil
}

// EstimateKey returns the minimum across instances.
func (e *MaxIntervalEnsemble) EstimateKey(k packet.CanonicalKey) uint32 {
	min := ^uint32(0)
	for _, inst := range e.Instances {
		if v := inst.EstimateKey(k); v < min {
			min = v
		}
	}
	return min
}

// MemoryBytes sums the instances' footprints.
func (e *MaxIntervalEnsemble) MemoryBytes() int {
	total := 0
	for _, inst := range e.Instances {
		total += inst.MemoryBytes()
	}
	return total
}

// Uninstall removes every instance.
func (e *MaxIntervalEnsemble) Uninstall() {
	for _, inst := range e.Instances {
		inst.Uninstall()
	}
}
