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

// rowIndex recomputes the register index row `row` used for a key whose
// compressed key is h — the control-plane readout path shared by all
// query helpers, which hash a key once for all the rows reading one unit.
// The row's selector reads one compressed key, so it is resolved against
// a one-slot stack array (selector unit 0) instead of a per-call heap
// slice sized to the group: a point query allocates nothing.
func rowIndex(h uint32, row int, mem core.MemRange, tr core.TranslationMethod) uint32 {
	keys := [1]uint32{h}
	return core.Translate(rowSelector(0, row).Resolve(keys[:]), mem, tr)
}

// rowSet is the placement of a task whose row i lives on CMU Base+i of one
// group, indexed by the row's sub-part of one compressed key (rowSelector):
// every single-group algorithm but HLL. It reads a row's cell for a key —
// the primitive every such decoder is built from — and accounts for and
// releases the task's rows.
type rowSet struct {
	Group  *core.Group
	TaskID int
	Unit   int
	Base   int // first CMU index (row i lives on CMU Base+i)
	D      int
	Rows   []core.MemRange
	Method core.TranslationMethod
}

// newRowSet places a d-row task on group g: rows at the optional first CMU
// index at (default 0), whole registers when rows is nil, and a
// compression unit configured for key. what names the algorithm in errors.
func newRowSet(what string, g *core.Group, taskID int, key packet.KeySpec, d int, rows []core.MemRange, at []int) (rowSet, error) {
	base := baseCMU(at)
	if d < 1 || d > g.CMUs() {
		return rowSet{}, fmt.Errorf("algorithms: %s depth %d exceeds group's %d CMUs", what, d, g.CMUs())
	}
	rows, err := checkRows(g, rows, base, d)
	if err != nil {
		return rowSet{}, err
	}
	unit, err := EnsureUnit(g, key)
	if err != nil {
		return rowSet{}, err
	}
	return rowSet{Group: g, TaskID: taskID, Unit: unit, Base: base, D: d, Rows: rows, Method: core.TCAMBased}, nil
}

// install installs r as row i — the row's key selector, partition and
// translation filled in — removing every row installed so far if it fails.
func (s *rowSet) install(i int, r *core.Rule) error {
	r.TaskID, r.Key, r.Mem, r.Translation = s.TaskID, rowSelector(s.Unit, s.Base+i), s.Rows[i], s.Method
	if err := s.Group.CMU(s.Base + i).InstallRule(r); err != nil {
		s.Uninstall()
		return err
	}
	return nil
}

// hash returns canonical key k's compressed key, which every row indexes
// a sub-part of.
func (s *rowSet) hash(k packet.CanonicalKey) uint32 { return s.Group.HashKey(s.Unit, k) }

// index returns the register index row i uses for compressed key h.
func (s *rowSet) index(i int, h uint32) uint32 { return rowIndex(h, s.Base+i, s.Rows[i], s.Method) }

// read returns row i's cell for compressed key h, from rows (nil: the live
// register).
func (s *rowSet) read(rows [][]uint32, i int, h uint32) uint32 {
	return cell(rows, i, s.Group, s.Base+i, s.Rows[i], s.index(i, h))
}

// minimum is the smallest cell key k reads across the rows, from rows
// (nil: the live registers): the count-min family's estimate.
func (s *rowSet) minimum(rows [][]uint32, k packet.CanonicalKey) uint32 {
	est, h := ^uint32(0), s.hash(k)
	for i := 0; i < s.D; i++ {
		est = min(est, s.read(rows, i, h))
	}
	return est
}

// MemoryBytes returns the task's register memory footprint (full uniform
// buckets, whatever share of their bits the algorithm uses).
func (s *rowSet) MemoryBytes() int {
	total := 0
	for i, r := range s.Rows {
		total += r.Buckets * s.Group.CMU(s.Base+i).Register().BitWidth() / 8
	}
	return total
}

// Uninstall removes the task's rules; its partitions keep their contents
// (core.CMU.RemoveRule).
func (s *rowSet) Uninstall() {
	for i := 0; i < s.Group.CMUs(); i++ {
		s.Group.CMU(i).RemoveRule(s.TaskID)
	}
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
