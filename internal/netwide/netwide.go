// Package netwide implements network-wide measurement over a fleet of
// FlyMon switches — the SDM-controller use case the paper positions FlyMon
// underneath (§3.4). The same task spec is deployed on every switch;
// controller construction, compressed-key configuration, and placement are
// deterministic, so identically configured switches fed the same
// deployments compute identical hash mappings — which every deployment and
// readout proves with a layout fingerprint before the central controller
// merges per-switch register readouts element-wise (add for counters, max
// for MAX/rank registers, OR for bitmaps) and answers queries about the
// union of all ingress traffic.
//
// There is one fleet, RemoteFleet: switches are flymond daemons behind the
// control channel, reached over TCP (NewRemoteFleetOptions) or, for a fleet
// living in this process, over an in-memory transport (NewLoopbackFleet).
// Either way a query is the same RPC fan-out into the same merge tree.
//
// The deployment model follows the standard network-wide measurement
// assumption: each packet is measured at exactly one switch (its ingress),
// so counter merges see disjoint streams; HLL/Bloom merges tolerate
// duplicates anyway.
package netwide

import (
	"fmt"
	"math/bits"

	"flymon/internal/controlplane"
	"flymon/internal/core/algorithms"
	"flymon/internal/faultnet"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/sketch"
)

// NewLoopbackFleet builds n identically configured switches inside this
// process — each a controller behind an rpc.Server on an in-memory
// listener — and the RemoteFleet over them. The controllers are the
// ingress handles (feed them packets); stop tears down the fleet's
// background work, the clients and the servers.
func NewLoopbackFleet(n int, cfg controlplane.Config, opts FleetOptions) (fleet *RemoteFleet, switches []*controlplane.Controller, stop func()) {
	if n < 1 {
		n = 1
	}
	switches = make([]*controlplane.Controller, n)
	servers := make([]*rpc.Server, n)
	clients := make([]*rpc.Client, n)
	for i := range switches {
		switches[i] = controlplane.NewController(cfg)
		servers[i] = rpc.NewServer(switches[i], nil)
		ln := faultnet.NewMemListener(fmt.Sprintf("switch%d", i))
		servers[i].Serve(ln)
		c, err := rpc.DialOptions(ln.Addr().String(), rpc.Options{Dialer: ln.Dial})
		if err != nil {
			panic(err) // a listener just put in service cannot refuse: a bug
		}
		clients[i] = c
	}
	fleet = NewRemoteFleetOptions(clients, cfg, opts)
	return fleet, switches, func() {
		fleet.Stop()
		for i := range clients {
			clients[i].Close()
			servers[i].Close()
		}
	}
}

// mergedTask merges the named task's live registers under op and resolves
// the mirror's handle as algorithm type T — the front half of every typed
// network-wide query. kind names what T answers, for the error.
func mergedTask[T any](f *RemoteFleet, name string, op MergeOp, kind string) (task T, merged [][]uint32, report QueryReport, err error) {
	merged, id, report, err := f.mergedRows(name, op)
	if err != nil {
		return task, nil, report, err
	}
	h, err := f.mirror.TaskHandle(id)
	if err != nil {
		return task, nil, report, err
	}
	task, ok := h.(T)
	if !ok {
		return task, nil, report, fmt.Errorf("netwide: task %q is not %s task", name, kind)
	}
	return task, merged, report, nil
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

// Each typed query below is one live fleet-wide merge plus a local readout
// of the merged rows, so it inherits everything MergedRows does: liveness
// ejection, AllowPartial, the merge tree, tracing. With AllowPartial set
// the answer may cover a subset of switches; the QueryReport says which.

// Cardinality returns the network-wide distinct-flow estimate of an HLL
// task: element-wise max of rank registers, then the harmonic-mean
// estimator. Duplicate observation across switches is harmless.
func (f *RemoteFleet) Cardinality(name string) (float64, QueryReport, error) {
	hll, merged, report, err := mergedTask[*algorithms.HLLTask](f, name, MergeMax, "an HLL")
	if err != nil {
		return 0, report, err
	}
	ranks := make([]uint8, len(merged[0]))
	for i, v := range merged[0] {
		if v > 255 {
			v = 255
		}
		ranks[i] = uint8(v)
	}
	return sketch.HLLEstimateFromRanks(ranks, 32-hll.B), report, nil
}

// Contains reports network-wide Bloom membership for key k: bitmap OR
// across switches, then the usual probes.
func (f *RemoteFleet) Contains(name string, k packet.CanonicalKey) (bool, QueryReport, error) {
	bloom, merged, report, err := mergedTask[*algorithms.BloomTask](f, name, MergeOr, "an existence")
	if err != nil {
		return false, report, err
	}
	indices, masks := bloom.ProbeKey(k)
	for i := range indices {
		idx := indices[i] - uint32(bloom.Rows[i].Base)
		if merged[i][idx]&masks[i] == 0 {
			return false, report, nil
		}
	}
	return true, report, nil
}

// HeavyHitters returns the candidates whose network-wide estimate meets
// the threshold: one merge, then every candidate probed against it.
func (f *RemoteFleet) HeavyHitters(name string, candidates []packet.CanonicalKey, threshold uint64) (map[packet.CanonicalKey]bool, QueryReport, error) {
	cms, merged, report, err := mergedTask[*algorithms.CMSTask](f, name, MergeAdd, "a counter")
	if err != nil {
		return nil, report, err
	}
	out := make(map[packet.CanonicalKey]bool)
	for _, k := range candidates {
		if countMin(cms, merged, k) >= threshold {
			out[k] = true
		}
	}
	return out, report, nil
}

// Reported returns the candidates a network-wide BeauCoup task reports:
// coupon bitmaps OR-merge across switches (a coupon collected anywhere is
// collected), then the usual min-across-tables popcount test.
func (f *RemoteFleet) Reported(name string, candidates []packet.CanonicalKey) (map[packet.CanonicalKey]bool, QueryReport, error) {
	bc, merged, report, err := mergedTask[*algorithms.BeauCoupTask](f, name, MergeOr, "a BeauCoup")
	if err != nil {
		return nil, report, err
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
	return out, report, nil
}
