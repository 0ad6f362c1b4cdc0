// Package algorithms composes FlyMon's built-in measurement algorithms
// (Table 3, §4, Appendix D) from CMU rules: FlyMon-CMS, FlyMon-BloomFilter,
// FlyMon-HLL, FlyMon-BeauCoup, FlyMon-MRAC, FlyMon-SuMax (Sum and Max),
// FlyMon-LinearCounting, FlyMon-TowerSketch, FlyMon-CounterBraids, and the
// combinatorial max-inter-arrival task. Each Install function emits exactly
// the runtime rules the control plane would install; each query helper
// performs the corresponding control-plane register readout and analysis.
package algorithms

import (
	"fmt"

	"flymon/internal/core"
	"flymon/internal/packet"
)

// rowRotation is the bit offset between the compressed-key sub-parts given
// to consecutive CMUs of a group, mirroring the paper's example of 0–15,
// 8–23, 16–31 (§3.2).
const rowRotation = 8

// EnsureUnit returns the index of a compression unit in g configured for
// spec, configuring a free unit when none matches (the control plane's
// greedy reuse of compressed keys, §3.4). A unit is free when no installed
// rule reads it (core.Group.FreeUnit), so a task's units return to the pool
// with its rules. held lists units this installation already configured but
// has not bound a rule to yet.
func EnsureUnit(g *core.Group, spec packet.KeySpec, held ...int) (int, error) {
	if i := g.FindUnit(spec); i >= 0 {
		return i, nil
	}
	i := g.FreeUnit(held...)
	if i < 0 {
		return -1, fmt.Errorf("algorithms: group %d has no free compression unit for key %s", g.ID(), spec)
	}
	if err := g.ConfigureUnit(i, spec); err != nil {
		return -1, err
	}
	return i, nil
}

// rowSelector returns the key selector for row `row` of a d-row algorithm:
// the shared compressed key from `unit`, rotated by row·8 bits so each CMU
// consumes a different sub-part.
func rowSelector(unit, row int) core.Selector {
	return core.FullKey(unit).SubRange(rowRotation*row, 32)
}

// rowIndex recomputes the register index row `row` used for canonical key
// k — the control-plane readout path shared by all query helpers. The
// row's selector reads one compressed key, so it is resolved against a
// one-slot stack array (selector unit 0) instead of a per-call heap
// slice sized to the group: a point query allocates nothing.
func rowIndex(g *core.Group, unit, row int, k packet.CanonicalKey, mem core.MemRange, tr core.TranslationMethod) uint32 {
	keys := [1]uint32{g.HashKey(unit, k)}
	addr := rowSelector(0, row).Resolve(keys[:])
	return core.Translate(addr, mem, tr)
}

// wholeRegisterRows returns d MemRanges each covering CMU row's whole
// register — the standalone (single-task) placement.
func wholeRegisterRows(g *core.Group, base, d int) []core.MemRange {
	rows := make([]core.MemRange, d)
	for i := range rows {
		rows[i] = core.MemRange{Base: 0, Buckets: g.CMU(base + i).Register().Size()}
	}
	return rows
}

// checkRows validates a placement of d rows against a group starting at CMU
// `base`.
func checkRows(g *core.Group, rows []core.MemRange, base, d int) ([]core.MemRange, error) {
	if base < 0 || base+d > g.CMUs() {
		return nil, fmt.Errorf("algorithms: rows [%d,%d) exceed group's %d CMUs", base, base+d, g.CMUs())
	}
	if rows == nil {
		return wholeRegisterRows(g, base, d), nil
	}
	if len(rows) != d {
		return nil, fmt.Errorf("algorithms: placement has %d rows, algorithm needs %d", len(rows), d)
	}
	return rows, nil
}

// baseCMU interprets the optional trailing first-CMU index every
// single-group installer accepts (default 0: row i on CMU i).
func baseCMU(at []int) int {
	if len(at) > 0 {
		return at[0]
	}
	return 0
}
