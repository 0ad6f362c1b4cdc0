package main

import (
	"fmt"

	"flymon/internal/controlplane"
	"flymon/internal/core"
	"flymon/internal/dataplane"
	"flymon/internal/epoch"
	"flymon/internal/hashing"
	"flymon/internal/netwide"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
)

// The lab times each layer in isolation on the workload's own first trace
// file and task set, so the per-packet and per-query budgets can be summed
// and compared with what the assembled system costs. It runs only in a
// traced run, before the timed phase, on controllers and a fleet of its
// own; call latencies are recorded as spans (round -1) and read back by
// name, per-packet kernels are timed directly. Everything is
// probe-bracketed like the rounds, so lab and timed phase compare even when
// the host changes mode between them.

const (
	labReps  = 5   // repetitions of each per-packet kernel; the median is reported
	labChunk = 256 // updates per batched register call, the frame engine's chunk width
)

// perItem returns the median over labReps probe-bracketed runs of fn's
// time per item, in ns at reference machine speed.
func (e *env) perItem(n int, fn func()) float64 {
	v := make([]float64, labReps)
	for i := range v {
		v[i] = e.h.timed(fn).norm() / float64(n)
	}
	return median(v)
}

// spanned runs fn n times inside one probe bracket, each call a lab span.
func (e *env) spanned(name string, n int, fn func(i int) error) (err error) {
	e.h.timed(func() {
		for i := 0; i < n && err == nil; i++ {
			id := e.h.begin(name, -1, -1)
			err = fn(i)
			e.h.end(id)
		}
	})
	if err != nil {
		return fmt.Errorf("lab: %s: %w", name, err)
	}
	return nil
}

func (e *env) lab() (map[string]float64, error) {
	m := make(map[string]float64)
	t := e.traces[0]
	n := t.Frames()

	// mmtrace: the span ring drained by a consumer that does nothing, and
	// the masked-key extract over every frame.
	var stalls struct{ push, pop uint64 }
	var ringErr error
	m["mmtrace.ring_ns_per_pkt"] = e.perItem(n, func() {
		rep, err := newReplayer(t)
		if err != nil {
			ringErr = err
			return
		}
		rep.Start()
		for tr, _, _ := rep.NextFrames(0); tr != nil; tr, _, _ = rep.NextFrames(0) {
		}
		st := rep.Stats().Ring
		stalls.push, stalls.pop = st.PushStalls, st.PopStalls
	})
	if ringErr != nil {
		return nil, ringErr
	}
	m["mmtrace.ring_push_stalls"] = float64(stalls.push)
	m["mmtrace.ring_pop_stalls"] = float64(stalls.pop)

	mask := packet.KeyFiveTuple.FieldMask()
	keys := make([]packet.CanonicalKey, n)
	m["mmtrace.extract_ns_per_pkt"] = e.perItem(n, func() {
		for i := range keys {
			t.At(i).ExtractMasked(&mask, &keys[i])
		}
	})

	// hashing: one CRC digest per pre-extracted key.
	hasher := hashing.NewUnit(0).Hasher()
	idx := make([]uint32, n)
	m["hashing.digest_ns_per_key"] = e.perItem(n, func() {
		for i := range keys {
			idx[i] = hasher.SumKey(&keys[i])
		}
	})

	// dataplane: the three batched register paths, fed the real digests
	// folded to one CMS row, so the bucket skew is the workload's.
	for i := range idx {
		idx[i] &= cmsBuckets - 1
	}
	cfg := e.w.config()
	reg := dataplane.NewRegister(cfg.Buckets, cfg.BitWidth)
	m["dataplane.add_ns_per_update"] = e.perItem(n, func() {
		for lo := 0; lo < n; lo += labChunk {
			reg.ApplyAddBatch(idx[lo:min(lo+labChunk, n)], 1)
		}
	})
	var p1, p2, res, old [labChunk]uint32
	for i := range p1 {
		p1[i], p2[i] = 1, ^uint32(0)
	}
	m["dataplane.apply_ns_per_update"] = e.perItem(n, func() {
		for lo := 0; lo < n; lo += labChunk {
			k := min(labChunk, n-lo)
			reg.ApplyBatch(dataplane.OpCondAdd, idx[lo:lo+k], p1[:k], p2[:k], res[:k], old[:k])
		}
	})
	reg.EnableSharding(2) // a single lane would disable sharding
	m["dataplane.shard_add_ns_per_update"] = e.perItem(n, func() {
		for lo := 0; lo < n; lo += labChunk {
			reg.ShardApplyAddBatch(0, idx[lo:min(lo+labChunk, n)], 1)
		}
	})

	if err := e.labCore(m, keys); err != nil {
		return nil, err
	}
	if err := e.labFleet(m); err != nil {
		return nil, err
	}
	return m, nil
}

// labCore times the compiled engine directly (no ring, no pool), the
// control-plane mutations and the local read paths, on a controller with
// the workload's long-lived tasks.
func (e *env) labCore(m map[string]float64, keys []packet.CanonicalKey) error {
	t := e.traces[0]
	n := t.Frames()
	pc := core.NewProcCtx()

	idle := controlplane.NewController(e.w.config())
	defer idle.Close()
	snap := idle.Pipeline().Compile()
	m["core.frames_idle_ns_per_pkt"] = e.perItem(n, func() { snap.ProcessFrames(pc, t, 0, n) })

	// A telemetry registry on a controller of its own counts digests and
	// register operations per packet: the multipliers of the packet budget.
	reg := telemetry.NewRegistry()
	cfg := e.w.config()
	cfg.Telemetry = reg
	counted, _, err := e.w.newController(cfg)
	if err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	defer counted.Close()
	if err := e.replay(counted, t, -1, -1); err != nil {
		return err
	}
	dp := reg.Report().DataPlane
	if dp.Packets == 0 {
		return fmt.Errorf("lab: telemetry counted no packets")
	}
	masks := make(map[[packet.NumFields]uint32]bool)
	for _, spec := range e.w.tasks() {
		masks[spec.Key.FieldMask()] = true
		if spec.Param.Kind == controlplane.ParamFlowKey {
			masks[spec.Param.Key.FieldMask()] = true
		}
	}
	m["lab.extracts_per_pkt"] = float64(len(masks))
	m["lab.digests_per_pkt"] = float64(dp.Stages.Compression) / float64(dp.Packets)
	m["lab.updates_per_pkt"] = float64(dp.Stages.Operation) / float64(dp.Packets)

	lc, ids, err := e.w.newController(e.w.config())
	if err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	defer lc.Close()
	firstID := ids[0]
	snap = lc.Pipeline().Compile()
	if !snap.FrameVectorized() {
		return fmt.Errorf("lab: the long-lived task set is not frame-vectorisable")
	}
	m["core.frames_ns_per_pkt"] = e.perItem(n, func() { snap.ProcessFrames(pc, t, 0, n) })
	pkts := make([]packet.Packet, n)
	t.DecodeRange(0, pkts)
	m["core.batch_ns_per_pkt"] = e.perItem(n, func() { snap.ProcessBatchCtx(pc, pkts) })

	if err := e.spanned("controlplane.ReadRegisters", 20, func(int) error {
		_, err := lc.ReadRegisters(firstID)
		return err
	}); err != nil {
		return err
	}
	if err := e.spanned("controlplane.EstimateKey", 64, func(i int) error {
		_, err := lc.EstimateKey(firstID, keys[i%len(keys)])
		return err
	}); err != nil {
		return err
	}

	// The churn drill: the mutations ingest_churn issues, on its task set
	// (ingest_steady's nine match-all tasks leave no CMU a filtered task
	// could share), then the probabilistic rule that makes the snapshot
	// fall back to per-frame decode. Compile is timed on that configuration.
	cw := findWorkload("ingest_churn")
	dc, _, err := cw.newController(cw.config())
	if err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	defer dc.Close()
	var task *controlplane.Task
	churn := controlplane.TaskSpec{
		Name: "lab-churn", Key: packet.KeySrcIP, Attribute: controlplane.AttrFrequency,
		Filter:     packet.Filter{SrcPrefix: packet.Prefix{Value: 10 << 24, Bits: 8}},
		MemBuckets: churnBuckets, D: cmsRows,
	}
	steps := []struct {
		name string
		fn   func(int) error
	}{
		{"controlplane.AddTask", func(int) (err error) { task, err = dc.AddTask(churn); return }},
		{"controlplane.ResizeTask", func(int) error { _, err := dc.ResizeTask(task.ID, churnResizedTo); return err }},
		{"controlplane.DrainShards", func(int) error { dc.DrainShards(); return nil }},
		{"controlplane.RemoveTask", func(int) error { return dc.RemoveTask(task.ID) }},
	}
	for i := 0; i < 8; i++ {
		for _, s := range steps {
			if err := e.spanned(s.name, 1, s.fn); err != nil {
				return err
			}
		}
	}
	churn.Prob = 0.5
	if _, err := dc.AddTask(churn); err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	if err := e.spanned("core.Compile", 20, func(int) error { snap = dc.Pipeline().Compile(); return nil }); err != nil {
		return err
	}
	if snap.FrameVectorized() {
		return fmt.Errorf("lab: a probabilistic task left the snapshot frame-vectorisable; core.fallback_share would be wrong")
	}
	m["core.fallback_ns_per_pkt"] = e.perItem(n, func() { snap.ProcessFrames(pc, t, 0, n) })

	// Local epoch rotation, no RPC.
	lr := controlplane.NewController(e.w.config())
	defer lr.Close()
	rot, err := epoch.NewRotator(lr, freqSpec(epochTask))
	if err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	return e.spanned("epoch.Rotate", 10, func(int) error { _, err := rot.Rotate(); return err })
}

// labFleet times the query plane piece by piece: on the workload's own
// fleet (every epoch it adds is complete before the timed phase rotates
// again), or on a two-daemon fleet of its own for a single-controller
// workload.
func (e *env) labFleet(m map[string]float64) error {
	le := e
	if e.fleet == nil {
		lw := *e.w
		lw.churn, lw.daemons = false, 2
		le = &env{w: &lw, h: e.h}
		defer le.close()
		if err := le.deploy(); err != nil {
			return fmt.Errorf("lab: fleet: %w", err)
		}
	}
	c0 := le.daemons[0].client

	if err := e.spanned("rpc.Ping", 50, func(int) error { return c0.Ping() }); err != nil {
		return err
	}
	solo := freqSpec("solo")
	if _, err := c0.EpochDeploy(solo); err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	if err := e.spanned("rpc.EpochRotate", 6, func(int) error { _, err := c0.EpochRotate(solo.Name, 0); return err }); err != nil {
		return err
	}
	if err := c0.EpochRemove(solo.Name); err != nil {
		return fmt.Errorf("lab: %w", err)
	}

	// Five empty epochs, then one that holds the first file from every
	// daemon: the reads and queries below run against real counters.
	rotate := func(int) error { _, err := le.fleet.RotateEpoch(epochTask); return err }
	if err := e.spanned("netwide.RotateEpoch", 5, rotate); err != nil {
		return err
	}
	for _, d := range le.daemons {
		if err := e.replay(d.ctrl, e.traces[0], -1, -1); err != nil {
			return err
		}
	}
	if err := e.spanned("netwide.RotateEpoch", 1, rotate); err != nil {
		return err
	}

	var frameBytes int
	if err := e.spanned("rpc.ReadEpoch", 20, func(int) error {
		r, err := c0.ReadEpoch(epochTask, 0)
		frameBytes = 0
		for _, l := range r.RowLens {
			frameBytes += 4 * l
		}
		return err
	}); err != nil {
		return err
	}
	m["rpc.read_epoch_bytes"] = float64(frameBytes)

	leaves := make([][][]uint32, len(le.daemons))
	for i, d := range le.daemons {
		r, err := d.client.ReadEpoch(epochTask, 0)
		if err != nil {
			return fmt.Errorf("lab: %w", err)
		}
		leaves[i] = r.FrameRows(nil)
	}
	// The tree merges into its leaves: every run gets fresh copies, made
	// and queued before its clock starts.
	runs := make([]chan netwide.Leaf, 10)
	for r := range runs {
		runs[r] = make(chan netwide.Leaf, len(leaves))
		for i, rows := range leaves {
			cp := make([][]uint32, len(rows))
			for j := range rows {
				cp[j] = append([]uint32(nil), rows[j]...)
			}
			runs[r] <- netwide.Leaf{Switch: i, Rows: cp}
		}
		close(runs[r])
	}
	if err := e.spanned("netwide.MergeStream", len(runs), func(i int) error {
		_, err := netwide.MergeStream(runs[i], netwide.MergeAdd, netwide.TreeOptions{Task: epochTask})
		return err
	}); err != nil {
		return err
	}
	m["lab.merge_buckets"] = float64(len(leaves) * frameBytes / 4)

	// Ten untimed queries first: the fleet's row-buffer pool and the
	// clients' connections reach the steady state the timed phase runs in.
	for i := 0; i < 10; i++ {
		if _, _, err := le.fleet.QueryEpochRows(epochTask, 0, netwide.EpochQuery{}); err != nil {
			return fmt.Errorf("lab: %w", err)
		}
	}
	if err := e.spanned("netwide.QueryEpochRows", 20, func(int) error {
		_, _, err := le.fleet.QueryEpochRows(epochTask, 0, netwide.EpochQuery{})
		return err
	}); err != nil {
		return err
	}
	var k packet.CanonicalKey
	mask := packet.KeyFiveTuple.FieldMask()
	e.traces[0].At(0).ExtractMasked(&mask, &k)
	return e.spanned("netwide.EstimateKeyEpoch", 32, func(int) error {
		_, _, err := le.fleet.EstimateKeyEpoch(epochTask, 0, k, netwide.EpochQuery{})
		return err
	})
}
