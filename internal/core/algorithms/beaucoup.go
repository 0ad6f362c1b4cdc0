package algorithms

import (
	"fmt"
	"math/bits"

	"flymon/internal/core"
	"flymon/internal/dataplane"
	"flymon/internal/packet"
	"flymon/internal/sketch"
)

// BeauCoupTask is FlyMon-BeauCoup (§4, DDoS Victim Detection): d CMUs each
// holding a coupon table. The key (e.g. C(DstIP)) locates a bucket; p1
// (e.g. C(SrcIP)) is mapped to a one-hot coupon by the preparation stage;
// the AND-OR operation's OR branch collects it. Instead of the original's
// per-bucket checksum, FlyMon hardens against hash collisions CMS-style: a
// key is reported only when all d tables have collected the target coupons.
type BeauCoupTask struct {
	Group  *core.Group
	TaskID int

	keyUnit   int
	paramUnit int
	Cfg       sketch.CouponConfig
	Base      int // first CMU index
	D         int
	Rows      []core.MemRange
	Method    core.TranslationMethod
}

// InstallBeauCoup installs a FlyMon-BeauCoup task on group g: distinct
// `param` values counted per `key` value against `threshold`.
func InstallBeauCoup(g *core.Group, taskID int, filter packet.Filter,
	key, param packet.KeySpec, threshold, d int, rows []core.MemRange, at ...int) (*BeauCoupTask, error) {
	base := baseCMU(at)
	if d < 1 || d > g.CMUs() {
		return nil, fmt.Errorf("algorithms: BeauCoup depth %d exceeds group's %d CMUs", d, g.CMUs())
	}
	rows, err := checkRows(g, rows, base, d)
	if err != nil {
		return nil, err
	}
	cfg := sketch.SolveCouponConfig(threshold, g.CMU(base).Register().BitWidth())
	keyUnit, err := EnsureUnit(g, key)
	if err != nil {
		return nil, err
	}
	paramUnit, err := EnsureUnit(g, param, keyUnit)
	if err != nil {
		return nil, err
	}
	t := &BeauCoupTask{Group: g, TaskID: taskID, keyUnit: keyUnit, paramUnit: paramUnit,
		Cfg: cfg, Base: base, D: d, Rows: rows, Method: core.TCAMBased}
	for i := 0; i < d; i++ {
		rule := &core.Rule{
			TaskID:      taskID,
			Filter:      filter,
			Key:         rowSelector(keyUnit, base+i),
			P1:          core.CompressedKey(core.FullKey(paramUnit).SubRange(rowRotation*(base+i), 32)),
			P2:          core.Const(1),
			Prep:        core.Transform{Kind: core.TransformCoupon, Coupons: cfg.Coupons, ProbLog2: cfg.ProbLog2},
			Mem:         rows[i],
			Translation: t.Method,
			Op:          dataplane.OpAndOr,
		}
		if err := g.CMU(base + i).InstallRule(rule); err != nil {
			t.Uninstall()
			return nil, err
		}
	}
	return t, nil
}

// CollectedCoupons returns the minimum coupon count across tables for
// canonical key k.
func (t *BeauCoupTask) CollectedCoupons(k packet.CanonicalKey) int {
	min := 64
	for i := 0; i < t.D; i++ {
		idx := rowIndex(t.Group, t.keyUnit, t.Base+i, k, t.Rows[i], t.Method)
		n := bits.OnesCount32(t.Group.CMU(t.Base + i).Register().Read(idx))
		if n < min {
			min = n
		}
	}
	return min
}

// Reported returns the candidates whose coupon target is met in all d
// tables.
func (t *BeauCoupTask) Reported(candidates []packet.CanonicalKey) map[packet.CanonicalKey]bool {
	out := make(map[packet.CanonicalKey]bool)
	for _, k := range candidates {
		if t.CollectedCoupons(k) >= t.Cfg.Collect {
			out[k] = true
		}
	}
	return out
}

// EstimateDistinct inverts key k's coupon count into a distinct-value
// estimate via the coupon-collector expectation.
func (t *BeauCoupTask) EstimateDistinct(k packet.CanonicalKey) float64 {
	j := t.CollectedCoupons(k)
	if j <= 0 {
		return 0
	}
	if j > t.Cfg.Coupons {
		j = t.Cfg.Coupons
	}
	cfg := t.Cfg
	cfg.Collect = j
	return cfg.ExpectedDraws()
}

// MemoryBytes returns the task's register memory footprint.
func (t *BeauCoupTask) MemoryBytes() int {
	total := 0
	for i, r := range t.Rows {
		total += r.Buckets * t.Group.CMU(t.Base+i).Register().BitWidth() / 8
	}
	return total
}

// Uninstall removes the task's rules.
func (t *BeauCoupTask) Uninstall() {
	for i := 0; i < t.Group.CMUs(); i++ {
		t.Group.CMU(i).RemoveRule(t.TaskID)
	}
}

// RowIndexFor returns the coupon-table index row i uses for canonical key
// k — the readout primitive merged network-wide detection builds on.
func (t *BeauCoupTask) RowIndexFor(i int, k packet.CanonicalKey) uint32 {
	return rowIndex(t.Group, t.keyUnit, t.Base+i, k, t.Rows[i], t.Method)
}
