package algorithms

import (
	"flymon/internal/core"
	"flymon/internal/dataplane"
	"flymon/internal/packet"
)

// CMSTask is a FlyMon-CMS instance: d CMUs of one group running Cond-ADD
// with p2 = +∞ (the unconditional ADD degeneration, §4 Heavy Hitter), all
// indexing sub-parts of one shared compressed key.
type CMSTask struct {
	rowSet
}

// InstallCMS installs a FlyMon-CMS task on group g: key spec, parameter
// source (Const(1) for packet counts, PacketSize() for byte counts), d
// rows, and an optional placement (nil = whole registers). filter narrows
// the task's traffic. The optional trailing argument is the first CMU
// index (row i → CMU at+i); it defaults to 0.
func InstallCMS(g *core.Group, taskID int, filter packet.Filter, key packet.KeySpec,
	param core.ParamSource, d int, rows []core.MemRange, at ...int) (*CMSTask, error) {
	rs, err := newRowSet("CMS", g, taskID, key, d, rows, at)
	if err != nil {
		return nil, err
	}
	t := &CMSTask{rs}
	for i := 0; i < d; i++ {
		if err := t.install(i, &core.Rule{Filter: filter, P1: param, P2: core.MaxValue(), Op: dataplane.OpCondAdd}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// EstimateKey returns the count-min estimate for canonical key k.
func (t *CMSTask) EstimateKey(k packet.CanonicalKey) uint32 { return t.estimate(nil, k) }

// estimate is EstimateKey read from rows (nil: the live registers).
func (t *CMSTask) estimate(rows [][]uint32, k packet.CanonicalKey) uint32 { return t.minimum(rows, k) }

// HeavyHitters returns the candidates whose estimate meets the threshold.
func (t *CMSTask) HeavyHitters(candidates []packet.CanonicalKey, threshold uint32) map[packet.CanonicalKey]bool {
	return atLeast(candidates, threshold, t.EstimateKey)
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

// KeyIndices returns the partition-relative bucket each row reads for
// canonical key k: two switches deployed from identical controller
// configurations compute identical indices, so a client holding their
// merged rows can probe them without a controller of its own.
func (t *CMSTask) KeyIndices(k packet.CanonicalKey) []uint32 {
	out, h := make([]uint32, t.D), t.hash(k)
	for i := range out {
		out[i] = t.index(i, h) - uint32(t.Rows[i].Base)
	}
	return out
}
