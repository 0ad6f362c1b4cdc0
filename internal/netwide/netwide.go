// Package netwide implements network-wide measurement over a fleet of
// FlyMon switches — the SDM-controller use case the paper positions FlyMon
// underneath (§3.4). The same task spec is deployed on every switch;
// because controller construction, compressed-key configuration, and
// placement are deterministic, every switch computes identical hash
// mappings, so the central controller can merge per-switch register
// readouts element-wise (add for counters, max for MAX/rank registers, OR
// for bitmaps) and answer queries about the union of all ingress traffic.
//
// The deployment model follows the standard network-wide measurement
// assumption: each packet is measured at exactly one switch (its ingress),
// so counter merges see disjoint streams; HLL/Bloom merges tolerate
// duplicates anyway.
package netwide

import (
	"fmt"
	"math/bits"
	"sync"

	"flymon/internal/controlplane"
	"flymon/internal/core/algorithms"
	"flymon/internal/packet"
	"flymon/internal/sketch"
)

// Fleet is a set of identically configured FlyMon switches plus the task
// registry that keeps their deployments in lockstep.
type Fleet struct {
	switches []*controlplane.Controller
	// taskIDs[name][i] is the task's ID on switch i (identical across
	// switches by construction, but tracked defensively).
	taskIDs map[string][]int
}

// NewFleet builds n switches from one configuration. Determinism of
// controller construction guarantees identical hash polynomials, unit
// configurations, and placements across the fleet.
func NewFleet(n int, cfg controlplane.Config) *Fleet {
	if n < 1 {
		n = 1
	}
	f := &Fleet{taskIDs: make(map[string][]int)}
	for i := 0; i < n; i++ {
		f.switches = append(f.switches, controlplane.NewController(cfg))
	}
	return f
}

// Size returns the number of switches.
func (f *Fleet) Size() int { return len(f.switches) }

// Switch returns switch i's controller (for direct inspection).
func (f *Fleet) Switch(i int) *controlplane.Controller { return f.switches[i] }

// Deploy installs the spec on every switch. Name must be unique per fleet.
func (f *Fleet) Deploy(spec controlplane.TaskSpec) error {
	if _, ok := f.taskIDs[spec.Name]; ok {
		return fmt.Errorf("netwide: task %q already deployed", spec.Name)
	}
	ids := make([]int, 0, len(f.switches))
	for i, sw := range f.switches {
		t, err := sw.AddTask(spec)
		if err != nil {
			// Roll back switches already configured.
			for j, id := range ids {
				_ = f.switches[j].RemoveTask(id)
			}
			return fmt.Errorf("netwide: deploying %q on switch %d: %w", spec.Name, i, err)
		}
		ids = append(ids, t.ID)
	}
	f.taskIDs[spec.Name] = ids
	return nil
}

// Remove uninstalls the named task fleet-wide.
func (f *Fleet) Remove(name string) error {
	ids, ok := f.taskIDs[name]
	if !ok {
		return fmt.Errorf("netwide: no task %q", name)
	}
	var firstErr error
	for i, id := range ids {
		if err := f.switches[i].RemoveTask(id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	delete(f.taskIDs, name)
	return firstErr
}

// Process measures packet p at its ingress switch.
func (f *Fleet) Process(ingress int, p *packet.Packet) {
	f.switches[ingress%len(f.switches)].Process(p)
}

// ProcessBatch measures a packet batch at one ingress switch through the
// sequential fast path.
func (f *Fleet) ProcessBatch(ingress int, ps []packet.Packet) {
	f.switches[ingress%len(f.switches)].ProcessBatch(ps)
}

// ProcessParallel fans a batch out across the fleet concurrently: packet i
// enters switch i mod Size (the round-robin ingress model the tests use),
// and every switch runs its own worker over its shard — switches are
// independent data planes, so the shards proceed without coordination.
func (f *Fleet) ProcessParallel(ps []packet.Packet) {
	n := len(f.switches)
	if n == 1 || len(ps) < 2 {
		f.ProcessBatch(0, ps)
		return
	}
	var wg sync.WaitGroup
	for si := 0; si < n; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sw := f.switches[si]
			for i := si; i < len(ps); i += n {
				sw.Process(&ps[i])
			}
		}(si)
	}
	wg.Wait()
}

// mergedRows reads the named task's registers on every switch and merges
// them with the supplied combiner into fresh slices.
func (f *Fleet) mergedRows(name string, combine func(dst, src []uint32) error) ([][]uint32, []int, error) {
	ids, ok := f.taskIDs[name]
	if !ok {
		return nil, nil, fmt.Errorf("netwide: no task %q", name)
	}
	var merged [][]uint32
	for i, id := range ids {
		rows, err := f.switches[i].ReadRegisters(id)
		if err != nil {
			return nil, nil, fmt.Errorf("netwide: reading %q on switch %d: %w", name, i, err)
		}
		if merged == nil {
			merged = make([][]uint32, len(rows))
			for r := range rows {
				merged[r] = make([]uint32, len(rows[r]))
				copy(merged[r], rows[r])
			}
			continue
		}
		if len(rows) != len(merged) {
			return nil, nil, fmt.Errorf("netwide: switch %d has %d rows for %q, expected %d", i, len(rows), name, len(merged))
		}
		for r := range rows {
			if err := combine(merged[r], rows[r]); err != nil {
				return nil, nil, err
			}
		}
	}
	return merged, ids, nil
}

// EstimateKey returns the network-wide frequency estimate for key k on a
// counter task (FlyMon-CMS): per-row sums across switches, min across rows.
// Requires each packet to be measured at exactly one switch.
func (f *Fleet) EstimateKey(name string, k packet.CanonicalKey) (uint64, error) {
	merged, ids, err := f.mergedRows(name, sketch.MergeAddRegisters)
	if err != nil {
		return 0, err
	}
	h, err := f.switches[0].TaskHandle(ids[0])
	if err != nil {
		return 0, err
	}
	cms, ok := h.(*algorithms.CMSTask)
	if !ok {
		return 0, fmt.Errorf("netwide: task %q is not a counter task", name)
	}
	return countMin(cms, merged, k), nil
}

// countMin reads key k's count-min estimate out of merged rows laid out
// like cms's partitions: min across rows of the cell cms indexes.
func countMin(cms *algorithms.CMSTask, merged [][]uint32, k packet.CanonicalKey) uint64 {
	min := ^uint32(0)
	for i := 0; i < cms.D; i++ {
		idx := cms.RowIndexFor(i, k) - uint32(cms.Rows[i].Base)
		if v := merged[i][idx]; v < min {
			min = v
		}
	}
	return uint64(min)
}

// Cardinality returns the network-wide distinct-flow estimate of an HLL
// task: element-wise max of rank registers, then the harmonic-mean
// estimator. Duplicate observation across switches is harmless.
func (f *Fleet) Cardinality(name string) (float64, error) {
	merged, ids, err := f.mergedRows(name, sketch.MergeMaxRegisters)
	if err != nil {
		return 0, err
	}
	h, err := f.switches[0].TaskHandle(ids[0])
	if err != nil {
		return 0, err
	}
	hll, ok := h.(*algorithms.HLLTask)
	if !ok {
		return 0, fmt.Errorf("netwide: task %q is not an HLL task", name)
	}
	ranks := make([]uint8, len(merged[0]))
	for i, v := range merged[0] {
		if v > 255 {
			v = 255
		}
		ranks[i] = uint8(v)
	}
	return sketch.HLLEstimateFromRanks(ranks, 32-hll.B), nil
}

// Contains reports network-wide Bloom membership for key k: bitmap OR
// across switches, then the usual probes.
func (f *Fleet) Contains(name string, k packet.CanonicalKey) (bool, error) {
	merged, ids, err := f.mergedRows(name, sketch.MergeOrRegisters)
	if err != nil {
		return false, err
	}
	h, err := f.switches[0].TaskHandle(ids[0])
	if err != nil {
		return false, err
	}
	bloom, ok := h.(*algorithms.BloomTask)
	if !ok {
		return false, fmt.Errorf("netwide: task %q is not an existence task", name)
	}
	indices, masks := bloom.ProbeKey(k)
	for i := range indices {
		idx := indices[i] - uint32(bloom.Rows[i].Base)
		if merged[i][idx]&masks[i] == 0 {
			return false, nil
		}
	}
	return true, nil
}

// HeavyHitters returns the candidates whose network-wide estimate meets
// the threshold.
func (f *Fleet) HeavyHitters(name string, candidates []packet.CanonicalKey, threshold uint64) (map[packet.CanonicalKey]bool, error) {
	out := make(map[packet.CanonicalKey]bool)
	for _, k := range candidates {
		v, err := f.EstimateKey(name, k)
		if err != nil {
			return nil, err
		}
		if v >= threshold {
			out[k] = true
		}
	}
	return out, nil
}

// Reported returns the candidates a network-wide BeauCoup task reports:
// coupon bitmaps OR-merge across switches (a coupon collected anywhere is
// collected), then the usual min-across-tables popcount test.
func (f *Fleet) Reported(name string, candidates []packet.CanonicalKey) (map[packet.CanonicalKey]bool, error) {
	merged, ids, err := f.mergedRows(name, sketch.MergeOrRegisters)
	if err != nil {
		return nil, err
	}
	h, err := f.switches[0].TaskHandle(ids[0])
	if err != nil {
		return nil, err
	}
	bc, ok := h.(*algorithms.BeauCoupTask)
	if !ok {
		return nil, fmt.Errorf("netwide: task %q is not a BeauCoup task", name)
	}
	out := make(map[packet.CanonicalKey]bool)
	for _, k := range candidates {
		min := 64
		for i := 0; i < bc.D; i++ {
			idx := bc.RowIndexFor(i, k) - uint32(bc.Rows[i].Base)
			if n := bits.OnesCount32(merged[i][idx]); n < min {
				min = n
			}
		}
		if min >= bc.Cfg.Collect {
			out[k] = true
		}
	}
	return out, nil
}
