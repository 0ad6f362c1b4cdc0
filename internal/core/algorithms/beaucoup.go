package algorithms

import (
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
	rowSet
	paramUnit int
	Cfg       sketch.CouponConfig
}

// InstallBeauCoup installs a FlyMon-BeauCoup task on group g: distinct
// `param` values counted per `key` value against `threshold`.
func InstallBeauCoup(g *core.Group, taskID int, filter packet.Filter,
	key, param packet.KeySpec, threshold, d int, rows []core.MemRange, at ...int) (*BeauCoupTask, error) {
	rs, err := newRowSet("BeauCoup", g, taskID, key, d, rows, at)
	if err != nil {
		return nil, err
	}
	paramUnit, err := EnsureUnit(g, param, rs.Unit)
	if err != nil {
		return nil, err
	}
	cfg := sketch.SolveCouponConfig(threshold, g.CMU(rs.Base).Register().BitWidth())
	t := &BeauCoupTask{rowSet: rs, paramUnit: paramUnit, Cfg: cfg}
	for i := 0; i < d; i++ {
		rule := &core.Rule{
			Filter: filter,
			P1:     core.CompressedKey(core.FullKey(paramUnit).SubRange(rowRotation*(t.Base+i), 32)),
			P2:     core.Const(1),
			Prep:   core.Transform{Kind: core.TransformCoupon, Coupons: cfg.Coupons, ProbLog2: cfg.ProbLog2},
			Op:     dataplane.OpAndOr,
		}
		if err := t.install(i, rule); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// collected is CollectedCoupons read from rows (nil: the live registers).
func (t *BeauCoupTask) collected(rows [][]uint32, k packet.CanonicalKey) int {
	n, h := 64, t.hash(k)
	for i := 0; i < t.D; i++ {
		n = min(n, bits.OnesCount32(t.read(rows, i, h)))
	}
	return n
}

// Reported returns the candidates whose coupon target is met in all d
// tables.
func (t *BeauCoupTask) Reported(candidates []packet.CanonicalKey) map[packet.CanonicalKey]bool {
	return t.reported(nil, candidates)
}

// reported is Reported read from rows (nil: the live registers).
func (t *BeauCoupTask) reported(rows [][]uint32, candidates []packet.CanonicalKey) map[packet.CanonicalKey]bool {
	out := make(map[packet.CanonicalKey]bool)
	for _, k := range candidates {
		if t.collected(rows, k) >= t.Cfg.Collect {
			out[k] = true
		}
	}
	return out
}

// distinct is EstimateDistinct read from rows (nil: the live registers).
func (t *BeauCoupTask) distinct(rows [][]uint32, k packet.CanonicalKey) float64 {
	j := t.collected(rows, k)
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
