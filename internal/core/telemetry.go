package core

import "flymon/internal/telemetry"

// This file is the data plane's half of the telemetry plane: how per-rule
// hit counts, packet totals, and preparation-stage drops get from the
// zero-allocation compiled hot path into the shared telemetry.Registry
// without adding contended atomics (or any allocation) to Process.
//
// The design stacks three write paths by decreasing frequency:
//
//  1. Derived counters (zero per-packet cost). A rule that is first in its
//     CMU program, match-all, and unsampled executes for every packet that
//     reaches its pass — which is most rules in practice (whole-traffic
//     sketches). The compiler proves this and gives such rules teleSlot -1;
//     their hits are reconstructed as the snapshot's packet count, settled
//     into the durable counters when the snapshot retires and folded live
//     at scrape time. The same argument derives the compression-stage
//     digest count (digests-per-packet is a compile-time constant).
//
//  2. Context-local accumulation (one plain add per filtered/sampled rule
//     execution). Rules the proof does not cover get a slot in the worker's
//     ProcCtx.tele array; exec bumps a plain uint64. Every teleFlushEvery
//     packets — and at batch boundaries, and whenever the worker observes a
//     new snapshot — the pending counts flush into the striped
//     telemetry.Counter objects, amortizing the atomics to ~1/64 per rule.
//
//  3. Striped shared counters (the flush target). telemetry.Counter spreads
//     flushes over cache-line-padded stripes keyed by the context's stripe
//     id, mirroring the register-lane pattern, so concurrent workers don't
//     serialize on a counter line; scrapes fold the stripes.
//
// Consistency contract: counts are exact once writers quiesce at a batch
// boundary (ProcessBatchCtx and every WorkerPool span both flush before
// returning). A long-idle pooled context can hold at most
// teleFlushEvery-1 packets of pending counts, so live scrapes undercount by
// a bounded, eventually-flushed amount. Snapshot retirement settles through
// the controller's retired-snapshot ring: a straggler still flushing into a
// just-retired snapshot is folded by the next settle pass over the ring.

// teleFlushEvery is the context-local flush cadence in packets. 64 keeps
// the striped-counter atomics off the per-packet path (two atomic adds per
// 64 packets) while bounding a live scrape's undercount per worker.
const teleFlushEvery = 64

// teleTick accounts one packet entering the snapshot fast path and flushes
// on cadence. Called by Snapshot.Process only when the snapshot carries
// telemetry.
func (pc *ProcCtx) teleTick(s *Snapshot) {
	if pc.teleSnap != s {
		pc.teleArm(s)
	}
	pc.telePend++
	if pc.telePend >= teleFlushEvery {
		pc.teleFlush()
	}
}

// teleTickBatch accounts n packets at once — the batch engine's fold of n
// teleTicks. The pending count crosses the flush cadence at most once per
// call, so totals (the only thing the consistency contract promises) match
// the per-packet path exactly once the worker quiesces at a batch
// boundary.
func (pc *ProcCtx) teleTickBatch(s *Snapshot, n int) {
	if pc.teleSnap != s {
		pc.teleArm(s)
	}
	pc.telePend += uint32(n)
	if pc.telePend >= teleFlushEvery {
		pc.teleFlush()
	}
}

// teleArm flushes whatever the context owed the previous snapshot, then
// sizes the pending-hit accumulators for s and aliases them into the PHV
// context. The make only runs when a snapshot with more live-counted rules
// appears — after the first packet of a configuration the path is
// allocation-free (the alloc gate covers this).
func (pc *ProcCtx) teleArm(s *Snapshot) {
	pc.teleFlush()
	pc.teleSnap = s
	n := len(s.teleSlots)
	if cap(pc.tele) < n {
		pc.tele = make([]uint64, n)
	}
	pc.tele = pc.tele[:n]
	for i := range pc.tele {
		pc.tele[i] = 0
	}
	pc.Ctx.Tele = pc.tele
}

// teleFlush moves the context's pending counts into the shared state of the
// snapshot it is armed for: packet/recirculation totals into the snapshot's
// unsettled counters, per-rule hits and prep drops into the striped
// registry counters on the context's stripe. No-op when never armed.
func (pc *ProcCtx) teleFlush() {
	s := pc.teleSnap
	if s == nil {
		return
	}
	if pc.telePend != 0 {
		s.telePkts.Add(uint64(pc.telePend))
		pc.telePend = 0
	}
	if pc.teleRecPend != 0 {
		s.teleRec.Add(uint64(pc.teleRecPend))
		pc.teleRecPend = 0
	}
	for i, n := range pc.tele {
		if n != 0 {
			s.teleSlots[i].Add(pc.stripe, n)
			pc.tele[i] = 0
		}
	}
	if pc.Ctx.PrepDrops != 0 {
		s.teleReg.PrepDrops().Add(pc.stripe, pc.Ctx.PrepDrops)
		pc.Ctx.PrepDrops = 0
	}
}

// TeleFlush flushes pending telemetry counts immediately. Exported for
// callers that hold a context across batches (the controller's context
// pool) and want scrape-exact counts at a known quiesce point.
func (pc *ProcCtx) TeleFlush() { pc.teleFlush() }

// TelemetrySettle drains the snapshot's unsettled packet counts into the
// durable registry state: derived rule counters receive their packet-count
// hits and the registry absorbs the implied compression digests. Safe to
// call repeatedly (counts swap to zero), including while stragglers still
// flush — whatever lands after one settle is caught by the next. The
// controller settles every snapshot it retires, keeping a short ring so
// late flushes from pooled contexts are eventually folded too.
func (s *Snapshot) TelemetrySettle() {
	if !s.teleOn {
		return
	}
	p := s.telePkts.Swap(0)
	r := s.teleRec.Swap(0)
	for _, rc := range s.teleMain {
		rc.Settle(p)
	}
	for _, rc := range s.teleSpl {
		rc.Settle(r)
	}
	s.teleReg.SettleDigests(p*uint64(s.teleDigMain) + r*uint64(s.teleDigSpl))
}

// TelemetryLive returns the snapshot's not-yet-settled contribution — its
// unsettled packet counts and the derived-counter lists they stand in for —
// for scrape-time folding without retiring the snapshot.
func (s *Snapshot) TelemetryLive() telemetry.LiveSample {
	if !s.teleOn {
		return telemetry.LiveSample{}
	}
	p := s.telePkts.Load()
	r := s.teleRec.Load()
	return telemetry.LiveSample{
		Packets:        p,
		Recirculated:   r,
		Digests:        p*uint64(s.teleDigMain) + r*uint64(s.teleDigSpl),
		Derived:        s.teleMain,
		DerivedSpliced: s.teleSpl,
	}
}
