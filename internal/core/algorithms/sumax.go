package algorithms

import (
	"fmt"

	"flymon/internal/core"
	"flymon/internal/dataplane"
	"flymon/internal/packet"
)

// SuMaxSumTask is FlyMon-SuMax(Sum) (§4, Heavy Hitter): d CMUs in d
// distinct, non-overlapping CMU Groups chained through the pipeline's
// running-minimum bus. Each row's Cond-ADD fires only while its counter is
// below the minimum seen upstream — the approximate conservative update
// that makes SuMax tighter than CMS at equal memory. Its CMU-Group usage of
// d (Table 3) is the cost of that cooperation.
type SuMaxSumTask struct {
	Groups []*core.Group
	TaskID int
	Units  []int
	Rows   []core.MemRange
	Method core.TranslationMethod
}

// InstallSuMaxSum installs a FlyMon-SuMax(Sum) task across groups (one row
// per group, all on CMU 0). rows may be nil for whole registers.
func InstallSuMaxSum(groups []*core.Group, taskID int, filter packet.Filter,
	key packet.KeySpec, param core.ParamSource, rows []core.MemRange) (*SuMaxSumTask, error) {
	if len(groups) < 1 {
		return nil, fmt.Errorf("algorithms: SuMax(Sum) needs at least one group")
	}
	if rows == nil {
		rows = make([]core.MemRange, len(groups))
		for i, g := range groups {
			rows[i] = core.MemRange{Base: 0, Buckets: g.CMU(0).Register().Size()}
		}
	}
	if len(rows) != len(groups) {
		return nil, fmt.Errorf("algorithms: SuMax(Sum) placement has %d rows for %d groups", len(rows), len(groups))
	}
	t := &SuMaxSumTask{Groups: groups, TaskID: taskID, Rows: rows, Method: core.TCAMBased}
	for i, g := range groups {
		unit, err := EnsureUnit(g, key)
		if err != nil {
			t.Uninstall()
			return nil, err
		}
		t.Units = append(t.Units, unit)
		rule := &core.Rule{
			TaskID:      taskID,
			Filter:      filter,
			Key:         core.FullKey(unit),
			P1:          param,
			P2:          core.MaxValue(), // overridden by the min chain
			Mem:         rows[i],
			Translation: t.Method,
			Op:          dataplane.OpCondAdd,
			ChainMin:    true,
		}
		if err := g.CMU(0).InstallRule(rule); err != nil {
			t.Uninstall()
			return nil, err
		}
	}
	return t, nil
}

// EstimateKey returns the row-minimum estimate for canonical key k.
func (t *SuMaxSumTask) EstimateKey(k packet.CanonicalKey) uint32 { return t.estimate(nil, k) }

// estimate is the row minimum read from rows (nil: the live registers);
// row i is CMU 0 of group i, indexed by the full compressed key.
func (t *SuMaxSumTask) estimate(rows [][]uint32, k packet.CanonicalKey) uint32 {
	min := ^uint32(0)
	for i, g := range t.Groups {
		idx := rowIndex(g.HashKey(t.Units[i], k), 0, t.Rows[i], t.Method)
		if c := cell(rows, i, g, 0, t.Rows[i], idx); c < min {
			min = c
		}
	}
	return min
}

// HeavyHitters returns the candidates whose estimate meets the threshold.
func (t *SuMaxSumTask) HeavyHitters(candidates []packet.CanonicalKey, threshold uint32) map[packet.CanonicalKey]bool {
	return atLeast(candidates, threshold, t.EstimateKey)
}

// MemoryBytes returns the task's register memory footprint.
func (t *SuMaxSumTask) MemoryBytes() int {
	total := 0
	for i, r := range t.Rows {
		total += r.Buckets * t.Groups[i].CMU(0).Register().BitWidth() / 8
	}
	return total
}

// Uninstall removes the task's rules from every group.
func (t *SuMaxSumTask) Uninstall() {
	for _, g := range t.Groups {
		for i := 0; i < g.CMUs(); i++ {
			g.CMU(i).RemoveRule(t.TaskID)
		}
	}
}

// SuMaxMaxTask is FlyMon-SuMax(Max) (Table 3): d CMUs of one group running
// the MAX operation over a metadata parameter (queue length, queue delay);
// the estimate is the minimum across rows, which trims hash-collision
// inflation.
type SuMaxMaxTask struct {
	rowSet
}

// InstallSuMaxMax installs a FlyMon-SuMax(Max) task on group g tracking the
// per-key maximum of param.
func InstallSuMaxMax(g *core.Group, taskID int, filter packet.Filter, key packet.KeySpec,
	param core.ParamSource, d int, rows []core.MemRange, at ...int) (*SuMaxMaxTask, error) {
	rs, err := newRowSet("SuMax(Max)", g, taskID, key, d, rows, at)
	if err != nil {
		return nil, err
	}
	t := &SuMaxMaxTask{rs}
	for i := 0; i < d; i++ {
		if err := t.install(i, &core.Rule{Filter: filter, P1: param, P2: core.Const(0), Op: dataplane.OpMax}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// estimate is EstimateKey read from rows (nil: the live registers).
func (t *SuMaxMaxTask) estimate(rows [][]uint32, k packet.CanonicalKey) uint32 {
	return t.minimum(rows, k)
}
