package algorithms

import (
	"fmt"

	"flymon/internal/core"
	"flymon/internal/dataplane"
	"flymon/internal/packet"
)

// CMSTask is a FlyMon-CMS instance: d CMUs of one group running Cond-ADD
// with p2 = +∞ (the unconditional ADD degeneration, §4 Heavy Hitter), all
// indexing sub-parts of one shared compressed key.
type CMSTask struct {
	Group  *core.Group
	TaskID int
	Unit   int
	Base   int // first CMU index (row i lives on CMU Base+i)
	D      int
	Rows   []core.MemRange
	Method core.TranslationMethod
}

// InstallCMS installs a FlyMon-CMS task on group g: key spec, parameter
// source (Const(1) for packet counts, PacketSize() for byte counts), d
// rows, and an optional placement (nil = whole registers). filter narrows
// the task's traffic. The optional trailing argument is the first CMU
// index (row i → CMU at+i); it defaults to 0.
func InstallCMS(g *core.Group, taskID int, filter packet.Filter, key packet.KeySpec,
	param core.ParamSource, d int, rows []core.MemRange, at ...int) (*CMSTask, error) {
	base := baseCMU(at)
	if d < 1 || d > g.CMUs() {
		return nil, fmt.Errorf("algorithms: CMS depth %d exceeds group's %d CMUs", d, g.CMUs())
	}
	rows, err := checkRows(g, rows, base, d)
	if err != nil {
		return nil, err
	}
	unit, err := EnsureUnit(g, key)
	if err != nil {
		return nil, err
	}
	t := &CMSTask{Group: g, TaskID: taskID, Unit: unit, Base: base, D: d, Rows: rows, Method: core.TCAMBased}
	for i := 0; i < d; i++ {
		rule := &core.Rule{
			TaskID:      taskID,
			Filter:      filter,
			Key:         rowSelector(unit, base+i),
			P1:          param,
			P2:          core.MaxValue(),
			Mem:         rows[i],
			Translation: t.Method,
			Op:          dataplane.OpCondAdd,
		}
		if err := g.CMU(base + i).InstallRule(rule); err != nil {
			t.Uninstall()
			return nil, err
		}
	}
	return t, nil
}

// EstimateKey returns the count-min estimate for canonical key k.
func (t *CMSTask) EstimateKey(k packet.CanonicalKey) uint32 {
	min := ^uint32(0)
	for i := 0; i < t.D; i++ {
		idx := rowIndex(t.Group, t.Unit, t.Base+i, k, t.Rows[i], t.Method)
		if c := t.Group.CMU(t.Base + i).Register().Read(idx); c < min {
			min = c
		}
	}
	return min
}

// HeavyHitters returns the candidates whose estimate meets the threshold.
func (t *CMSTask) HeavyHitters(candidates []packet.CanonicalKey, threshold uint32) map[packet.CanonicalKey]bool {
	out := make(map[packet.CanonicalKey]bool)
	for _, k := range candidates {
		if t.EstimateKey(k) >= threshold {
			out[k] = true
		}
	}
	return out
}

// MemoryBytes returns the task's register memory footprint.
func (t *CMSTask) MemoryBytes() int {
	total := 0
	for i, r := range t.Rows {
		total += r.Buckets * t.Group.CMU(t.Base+i).Register().BitWidth() / 8
	}
	return total
}

// Uninstall removes the task's rules; its partitions keep their contents
// (core.CMU.RemoveRule).
func (t *CMSTask) Uninstall() {
	for i := 0; i < t.Group.CMUs(); i++ {
		t.Group.CMU(i).RemoveRule(t.TaskID)
	}
}

// MRACTask is FlyMon-MRAC: data-plane-identical to a d=1 FlyMon-CMS; only
// the control-plane analysis differs (Appendix D).
type MRACTask struct {
	*CMSTask
}

// InstallMRAC installs a FlyMon-MRAC task (one CMU) on group g. The
// optional trailing argument selects the CMU.
func InstallMRAC(g *core.Group, taskID int, filter packet.Filter, key packet.KeySpec,
	rows []core.MemRange, at ...int) (*MRACTask, error) {
	t, err := InstallCMS(g, taskID, filter, key, core.Const(1), 1, rows, at...)
	if err != nil {
		return nil, err
	}
	return &MRACTask{CMSTask: t}, nil
}

// Counters reads the task's counter partition for EM analysis.
func (t *MRACTask) Counters() ([]uint32, error) {
	return t.Group.CMU(t.Base).ReadTask(t.TaskID)
}

// RowIndexFor returns the register index row i uses for canonical key k —
// the readout primitive network-wide merging builds on: two switches
// deployed from identical controller configurations compute identical
// indices, so their register readouts combine element-wise.
func (t *CMSTask) RowIndexFor(i int, k packet.CanonicalKey) uint32 {
	return rowIndex(t.Group, t.Unit, t.Base+i, k, t.Rows[i], t.Method)
}
