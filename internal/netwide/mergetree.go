package netwide

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"flymon/internal/sketch"
	"flymon/internal/telemetry"
	"flymon/internal/tracing"
)

// The parallel k-ary merge tree: the fleet query plane's reduction engine.
//
// A network-wide answer is a fold of per-switch register readouts under a
// mergeable operation (§3.4: identical hash configuration makes register
// state element-wise combinable). A sequential fold walks switches in index
// order, so its critical path is O(n) merges *after* the slowest fetch.
// MergeStream instead treats row sets as tournament entrants: leaves are
// merged k at a time as soon as they arrive — fetch latency overlaps
// interior merges, no barrier waits for the slowest switch, and a worker
// pool spreads the merge kernels across cores. Every operation in the
// algebra (saturating add, max, or, xor) is commutative and associative —
// saturating add included, since partial sums of non-negative values
// clamp exactly when the total would — so the tree's merge order cannot
// change the result: tree output is bit-identical to the sequential fold
// (kept as the test oracle).

// MergeOp selects the element-wise combine applied at every tree node.
type MergeOp int

const (
	// MergeAdd saturating-adds registers (counter tasks over disjoint
	// streams: frequencies, heavy hitters).
	MergeAdd MergeOp = iota
	// MergeMax takes element-wise maxima (HLL ranks, per-key maxima).
	MergeMax
	// MergeOr ORs bitmaps (Bloom filters, coupon tables).
	MergeOr
	// MergeXor XORs odd sketches (symmetric-difference semantics).
	MergeXor
)

func (op MergeOp) String() string {
	switch op {
	case MergeAdd:
		return "add"
	case MergeMax:
		return "max"
	case MergeOr:
		return "or"
	case MergeXor:
		return "xor"
	default:
		return fmt.Sprintf("MergeOp(%d)", int(op))
	}
}

// ParseMergeOp resolves a CLI-facing op name.
func ParseMergeOp(s string) (MergeOp, error) {
	switch s {
	case "add", "":
		return MergeAdd, nil
	case "max":
		return MergeMax, nil
	case "or":
		return MergeOr, nil
	case "xor":
		return MergeXor, nil
	default:
		return 0, fmt.Errorf("netwide: unknown merge op %q (want add|max|or|xor)", s)
	}
}

// Combine merges one register row of src into dst under the op.
func (op MergeOp) Combine(dst, src []uint32) error {
	switch op {
	case MergeAdd:
		return sketch.MergeAddRegisters(dst, src)
	case MergeMax:
		return sketch.MergeMaxRegisters(dst, src)
	case MergeOr:
		return sketch.MergeOrRegisters(dst, src)
	case MergeXor:
		return sketch.MergeXorRegisters(dst, src)
	default:
		return fmt.Errorf("netwide: unknown merge op %d", int(op))
	}
}

// GeometryError reports a register-geometry mismatch between two switches'
// readouts of the same task — a misconfigured daemon (different
// -groups/-buckets) or a diverged deployment. It names both switches so
// the operator knows exactly which pair disagrees instead of getting a
// generic merge failure.
type GeometryError struct {
	Task             string
	SwitchA, SwitchB int // SwitchA is the reference readout, SwitchB the offender
	Row              int // -1: row-count mismatch; >= 0: length mismatch at this row
	DimA, DimB       int // row counts (Row == -1) or row lengths (Row >= 0)
}

func (e *GeometryError) Error() string {
	if e.Row < 0 {
		return fmt.Sprintf("netwide: geometry mismatch on task %q: switch %d has %d rows, switch %d has %d",
			e.Task, e.SwitchA, e.DimA, e.SwitchB, e.DimB)
	}
	return fmt.Sprintf("netwide: geometry mismatch on task %q row %d: switch %d has %d buckets, switch %d has %d",
		e.Task, e.Row, e.SwitchA, e.DimA, e.SwitchB, e.DimB)
}

// checkGeometry validates rows against the reference readout's shape.
func checkGeometry(task string, refSwitch int, refLens []int, sw int, rows [][]uint32) error {
	if len(rows) != len(refLens) {
		return &GeometryError{Task: task, SwitchA: refSwitch, SwitchB: sw, Row: -1, DimA: len(refLens), DimB: len(rows)}
	}
	for r, row := range rows {
		if len(row) != refLens[r] {
			return &GeometryError{Task: task, SwitchA: refSwitch, SwitchB: sw, Row: r, DimA: refLens[r], DimB: len(row)}
		}
	}
	return nil
}

// Leaf is one switch's fetched row set entering the merge tree.
type Leaf struct {
	Switch int
	Rows   [][]uint32
}

// TreeOptions tunes one MergeStream run.
type TreeOptions struct {
	// Task names the queried task in geometry errors.
	Task string
	// Arity is the tournament fan-in per interior node (default 4: wide
	// enough that a 256-leaf tree is depth 4, narrow enough that early
	// arrivals start merging before half the fleet has answered).
	Arity int
	// Workers sizes the merge worker pool (default GOMAXPROCS).
	Workers int
	// Stats, when set, receives tree-shape gauges and per-level merge
	// latencies. nil = uninstrumented.
	Stats *telemetry.MergeTreeStats
	// Recycle, when set, receives consumed source row sets after each
	// interior merge — the fleet layer returns them to its buffer pool so
	// a steady query load reuses leaf buffers instead of reallocating
	// every fetch. Must be safe for concurrent calls. nil = GC.
	Recycle func([][]uint32)
	// Tracer and Parent, when both set (Parent valid), record one "merge"
	// span covering the whole reduction plus a "merge:kernel" child per
	// interior node, tagged with the node's level and fan-in — the
	// critical-path view of where a slow fleet query spent its time.
	Tracer *tracing.Tracer
	Parent tracing.SpanContext
}

// TreeResult is a completed reduction.
type TreeResult struct {
	// Rows is the merged readout (nil when no leaf arrived). The caller
	// owns it; it is never recycled.
	Rows [][]uint32
	// Contributed lists the switches merged in, ascending.
	Contributed []int
	// Depth is the tree's height (0 for a single leaf).
	Depth int
	// Merges is the number of interior nodes executed.
	Merges int
}

// treeNode is a row set inside the tournament: a leaf (level 0) or the
// result of an interior merge (1 + max child level).
type treeNode struct {
	rows  [][]uint32
	level int
}

type mergeDone struct {
	node treeNode
	err  error
}

// MergeStream reduces the row sets arriving on leaves under op and
// returns the merged readout. It consumes leaves until the channel is
// closed, merging k at a time on a worker pool as entrants become
// available — callers feed it straight from their RPC fan-out so fetches
// overlap merges. The first geometry or merge error aborts the reduction
// (remaining leaves are drained and recycled) and is returned.
func MergeStream(leaves <-chan Leaf, op MergeOp, opts TreeOptions) (TreeResult, error) {
	arity := opts.Arity
	if arity < 2 {
		arity = 4
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	recycle := opts.Recycle
	if recycle == nil {
		recycle = func([][]uint32) {}
	}
	msp := traceSpan(opts.Tracer, opts.Parent, "merge")
	msc := msp.Context()

	jobs := make(chan []treeNode)
	done := make(chan mergeDone, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for nodes := range jobs {
				done <- runMerge(nodes, op, opts.Stats, recycle, opts.Tracer, msc)
			}
		}()
	}
	// The coordinator is the only goroutine touching pending/outstanding,
	// so the tree needs no locks: workers communicate purely over
	// channels, and job dispatch pumps `done` while blocked on `jobs` so
	// a full worker pool can never deadlock the reduction.
	var (
		res         TreeResult
		pending     []treeNode
		outstanding int
		firstErr    error
		refSwitch   int
		refLens     []int
		lastSwitch  = -1 // switch of the last-arriving leaf: what the merge waited on
	)
	absorb := func(d mergeDone) {
		outstanding--
		if d.err != nil {
			if firstErr == nil {
				firstErr = d.err
			}
			return
		}
		if firstErr != nil {
			recycle(d.node.rows)
			return
		}
		res.Merges++
		if d.node.level > res.Depth {
			res.Depth = d.node.level
		}
		pending = append(pending, d.node)
	}
	in := leaves
	for {
		// Dispatch while a full-arity merge is ready, or — once the input
		// is exhausted and nothing is in flight — to fold the remainder.
		for firstErr == nil && (len(pending) >= arity ||
			(in == nil && outstanding == 0 && len(pending) >= 2)) {
			k := arity
			if k > len(pending) {
				k = len(pending)
			}
			job := make([]treeNode, k)
			copy(job, pending[len(pending)-k:])
			pending = pending[:len(pending)-k]
			for sent := false; !sent; {
				select {
				case jobs <- job:
					outstanding++
					sent = true
				case d := <-done:
					absorb(d)
				}
			}
		}
		if in == nil && outstanding == 0 {
			break
		}
		select {
		case lf, ok := <-in:
			if !ok {
				in = nil
				continue
			}
			if firstErr != nil {
				recycle(lf.Rows)
				continue
			}
			if refLens == nil {
				refSwitch = lf.Switch
				refLens = make([]int, len(lf.Rows))
				for r, row := range lf.Rows {
					refLens[r] = len(row)
				}
			} else if err := checkGeometry(opts.Task, refSwitch, refLens, lf.Switch, lf.Rows); err != nil {
				firstErr = err
				recycle(lf.Rows)
				continue
			}
			res.Contributed = append(res.Contributed, lf.Switch)
			lastSwitch = lf.Switch
			pending = append(pending, treeNode{rows: lf.Rows})
		case d := <-done:
			absorb(d)
		}
	}
	close(jobs)
	if firstErr != nil {
		for _, n := range pending {
			recycle(n.rows)
		}
		msp.Finish(firstErr)
		return TreeResult{}, firstErr
	}
	if len(pending) == 1 {
		res.Rows = pending[0].rows
	}
	sort.Ints(res.Contributed)
	// The merge span's wall clock is dominated by waiting on the slowest
	// leaf, so tag it with that leaf's switch: a critical path that lands
	// on the merge then still names the switch the operation waited on.
	if msp != nil {
		msp.SetSwitch(lastSwitch)
		msp.SetDetail(fmt.Sprintf("leaves=%d depth=%d merges=%d", len(res.Contributed), res.Depth, res.Merges))
		msp.Finish(nil)
	}
	if st := opts.Stats; st != nil {
		st.Queries.Add(1)
		st.LastDepth.Store(uint64(res.Depth))
		st.LastFanout.Store(uint64(len(res.Contributed)))
	}
	return res, nil
}

// runMerge executes one interior node: fold nodes[1:] into nodes[0],
// recycling consumed sources. Geometry was validated at leaf admission,
// so combine errors here mean a bug, not bad input — still surfaced.
func runMerge(nodes []treeNode, op MergeOp, stats *telemetry.MergeTreeStats, recycle func([][]uint32), tr *tracing.Tracer, parent tracing.SpanContext) mergeDone {
	start := time.Now()
	sp := traceSpan(tr, parent, "merge:kernel")
	dst := nodes[0]
	for _, src := range nodes[1:] {
		if src.level > dst.level {
			dst.level = src.level
		}
		for r := range dst.rows {
			if err := op.Combine(dst.rows[r], src.rows[r]); err != nil {
				sp.Finish(err)
				return mergeDone{err: err}
			}
		}
		recycle(src.rows)
	}
	dst.level++
	if sp != nil {
		sp.SetDetail(fmt.Sprintf("level=%d fanin=%d", dst.level-1, len(nodes)))
		sp.Finish(nil)
	}
	if stats != nil {
		elapsed := time.Since(start)
		stats.Merges.Add(1)
		stats.MergeLatency.Observe(elapsed)
		stats.ObserveLevel(dst.level-1, elapsed)
	}
	return mergeDone{node: dst}
}
