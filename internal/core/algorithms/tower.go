package algorithms

import (
	"fmt"

	"flymon/internal/core"
	"flymon/internal/dataplane"
	"flymon/internal/packet"
)

// TowerTask is FlyMon-TowerSketch (Appendix D): each CMU level implements a
// flexible-width counter in the most-significant bits of the uniform-width
// buckets. Level i adds p1 = 1 << (B − wᵢ) under the overflow guard
// p2 = (2^wᵢ − 1) << (B − wᵢ), so narrow counters saturate instead of
// corrupting neighbours; different level lengths come from address
// translation. The query is the minimum over non-saturated levels.
type TowerTask struct {
	rowSet
	Widths []int // counter bit width per level (CMU)
}

// InstallTower installs a FlyMon-TowerSketch with one level per width on
// group g. rows may be nil (whole registers — equal level lengths) or give
// per-level partitions (canonically: narrower counters get longer arrays).
func InstallTower(g *core.Group, taskID int, filter packet.Filter, key packet.KeySpec,
	widths []int, rows []core.MemRange, at ...int) (*TowerTask, error) {
	rs, err := newRowSet("tower", g, taskID, key, len(widths), rows, at)
	if err != nil {
		return nil, err
	}
	t := &TowerTask{rowSet: rs, Widths: widths}
	for i, w := range widths {
		B := g.CMU(t.Base + i).Register().BitWidth()
		if w <= 0 || w > B {
			t.Uninstall()
			return nil, fmt.Errorf("algorithms: tower level %d width %d exceeds bucket width %d", i, w, B)
		}
		shift := uint(B - w)
		rule := &core.Rule{Filter: filter, P1: core.Const(1 << shift),
			P2: core.Const(((1 << uint(w)) - 1) << shift), Op: dataplane.OpCondAdd}
		if err := t.install(i, rule); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// estimate is the tower estimate read from rows (nil: the live registers).
func (t *TowerTask) estimate(rows [][]uint32, k packet.CanonicalKey) uint32 {
	best := ^uint32(0)
	live := false
	var widestSat uint32
	h := t.hash(k)
	for i, w := range t.Widths {
		cnt := t.read(rows, i, h) >> uint(t.Group.CMU(t.Base+i).Register().BitWidth()-w)
		sat := uint32(1<<uint(w)) - 1
		widestSat = max(widestSat, sat)
		if cnt >= sat {
			continue
		}
		live = true
		best = min(best, cnt)
	}
	if !live {
		return widestSat
	}
	return best
}

// CounterBraidsTask is FlyMon-CounterBraids (L=2, Appendix D): CMU 1 runs a
// narrow counter in its buckets' top bits; once it saturates, its Cond-ADD
// returns 0 and CMU 2's preparation-stage zero-gate converts that into an
// increment of the wide layer-2 counter. The recovered count is
// layer1 + layer2 (exact absent collisions).
type CounterBraidsTask struct {
	rowSet
	W1, W2 int
}

// InstallCounterBraids installs a FlyMon-CounterBraids task on group g with
// layer widths w1 (narrow) and w2 (wide).
func InstallCounterBraids(g *core.Group, taskID int, filter packet.Filter,
	key packet.KeySpec, w1, w2 int, rows []core.MemRange, at ...int) (*CounterBraidsTask, error) {
	rs, err := newRowSet("counter braids", g, taskID, key, 2, rows, at)
	if err != nil {
		return nil, err
	}
	B1 := g.CMU(rs.Base).Register().BitWidth()
	B2 := g.CMU(rs.Base + 1).Register().BitWidth()
	if w1 <= 0 || w1 > B1 || w2 <= 0 || w2 > B2 {
		return nil, fmt.Errorf("algorithms: counter braids widths (%d,%d) exceed buckets (%d,%d)", w1, w2, B1, B2)
	}
	t := &CounterBraidsTask{rowSet: rs, W1: w1, W2: w2}
	s1 := uint(B1 - w1)
	layer1 := &core.Rule{Filter: filter, P1: core.Const(1 << s1),
		P2: core.Const(((1 << uint(w1)) - 1) << s1), Op: dataplane.OpCondAdd}
	if err := t.install(0, layer1); err != nil {
		return nil, err
	}
	s2 := uint(B2 - w2)
	layer2 := &core.Rule{
		Filter: filter,
		P1:     core.PrevResult(),
		P2:     core.Const(((1 << uint(w2)) - 1) << s2),
		Prep: core.Transform{
			Kind:   core.TransformZeroGate,
			IfZero: 1 << s2, // layer 1 saturated: count here
			Else:   0,       // layer 1 took the packet: add nothing
		},
		Op: dataplane.OpCondAdd,
	}
	if err := t.install(1, layer2); err != nil {
		return nil, err
	}
	return t, nil
}

// estimate is layer1 + layer2 read from rows (nil: the live registers).
func (t *CounterBraidsTask) estimate(rows [][]uint32, k packet.CanonicalKey) uint64 {
	var sum uint64
	h := t.hash(k)
	for i, w := range [2]int{t.W1, t.W2} {
		sum += uint64(t.read(rows, i, h) >> uint(t.Group.CMU(t.Base+i).Register().BitWidth()-w))
	}
	return sum
}
