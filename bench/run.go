package main

import (
	"fmt"
	"math"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/netwide"
	"flymon/internal/packet"
)

// roundRec is one timed round: the frames it ingested, its wall time and
// the same time at reference machine speed. A churn round sums its eleven
// probe-bracketed replay segments; a fleet round is the whole cycle.
type roundRec struct {
	frames int
	raw    time.Duration
	normNs float64
	traced bool
}

// opRec is one op of the workload (a burst absorbed, a mutation, a query).
type opRec struct {
	round  int
	raw    time.Duration
	m      float64
	failed bool
}

type result struct {
	rounds    []roundRec
	ops       []opRec
	attempted int
	failed    int
	failures  []string // first few, for the operator

	fallbackFrames int     // frames replayed while the snapshot was not vectorisable
	busyNs         float64 // every timed call of every round, at reference speed
}

func (r *result) op(round int, raw time.Duration, m float64, err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
	r.ops = append(r.ops, opRec{round: round, raw: raw, m: m, failed: err != nil})
}

// frames is the total ingested over all recorded rounds.
func (r *result) frames() (n int) {
	for _, rec := range r.rounds {
		n += rec.frames
	}
	return n
}

// fail counts a failed check that is not tied to a latency sample.
func (r *result) fail(err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

// round runs timed round r (negative = warm-up) and records it.
func (e *env) round(r int, res *result) {
	if e.w.daemons > 0 {
		e.cycle(r, res)
	} else {
		e.ingest(r, res)
	}
}

// ingest is one round of a single-controller workload: replay the next
// file; under churn, eleven times with one mutation after each. A replay
// and the mutation that follows it share one probe bracket.
func (e *env) ingest(r int, res *result) {
	segs := 1
	if e.w.churn {
		segs = len(churnPattern)
	}
	rec := roundRec{traced: e.h.on}
	for s := 0; s < segs; s++ {
		t := e.traces[((r+2)*segs+s)%len(e.traces)]
		if e.slots[probSlot] != 0 {
			res.fallbackFrames += t.Frames()
		}
		var replay, mutation time.Duration
		var rerr, merr error
		tm := e.h.timed(func() {
			start := time.Now()
			rerr = e.replay(e.ctrl, t, -1, r)
			replay = time.Since(start)
			if e.w.churn {
				start = time.Now()
				merr = e.mutate(churnPattern[s], r, s)
				mutation = time.Since(start)
			}
		})
		e.replayed += uint64(t.Frames())
		rec.frames += t.Frames()
		rec.raw += replay
		rec.normNs += float64(replay) / tm.m
		res.busyNs += tm.norm()
		if !e.w.churn {
			res.op(r, replay, tm.m, rerr) // the op is the burst itself
			continue
		}
		if rerr != nil {
			res.fail(rerr)
		}
		if merr == nil {
			merr = e.checkTasks()
		}
		res.op(r, mutation, tm.m, merr)
	}
	res.rounds = append(res.rounds, rec)
}

// mutate applies one step of the churn schedule.
func (e *env) mutate(st churnStep, r, s int) error {
	slot := &e.slots[st.slot]
	switch st.op {
	case churnAdd:
		spec := controlplane.TaskSpec{
			Name:       fmt.Sprintf("churn-%d-%d", r, s),
			Filter:     packet.Filter{SrcPrefix: packet.Prefix{Value: uint32(e.rng.Intn(256)) << 24, Bits: 8}},
			Key:        churnKeys[e.rng.Intn(len(churnKeys))],
			Attribute:  controlplane.AttrFrequency,
			MemBuckets: churnBuckets,
			D:          cmsRows,
		}
		if st.slot == probSlot {
			spec.Prob = 0.5
			spec.MemBuckets = churnResizedTo // never resized: every removal then clears the same memory
		}
		id := e.h.begin("controlplane.AddTask", -1, r)
		t, err := e.ctrl.AddTask(spec)
		e.h.end(id)
		if err != nil {
			return err
		}
		*slot = t.ID
		e.expect[t.ID] = spec.Name
	case churnResize:
		id := e.h.begin("controlplane.ResizeTask", -1, r)
		_, err := e.ctrl.ResizeTask(*slot, churnResizedTo)
		e.h.end(id)
		if err != nil {
			return err
		}
	case churnRemove:
		id := e.h.begin("controlplane.RemoveTask", -1, r)
		err := e.ctrl.RemoveTask(*slot)
		e.h.end(id)
		if err != nil {
			return err
		}
		delete(e.expect, *slot)
		*slot = 0
	}
	return nil
}

// checkTasks requires the controller's task list to match the schedule.
func (e *env) checkTasks() error {
	tasks := e.ctrl.Tasks()
	if len(tasks) != len(e.expect) {
		return fmt.Errorf("controller lists %d tasks, schedule has %d", len(tasks), len(e.expect))
	}
	for _, t := range tasks {
		if name, ok := e.expect[t.ID]; !ok || name != t.Spec.Name {
			return fmt.Errorf("controller lists task %d %q, schedule has %q", t.ID, t.Spec.Name, name)
		}
	}
	return nil
}

// checkCMS requires every row of the long-lived CMS to sum exactly to the
// packets replayed: reconfiguration must not change what is measured.
func (e *env) checkCMS() error {
	rows, err := e.ctrl.ReadRegisters(e.cmsID)
	if err != nil {
		return err
	}
	if len(rows) != cmsRows {
		return fmt.Errorf("CMS task %d has %d rows, want %d", e.cmsID, len(rows), cmsRows)
	}
	for i, row := range rows {
		var sum uint64
		for _, v := range row {
			sum += uint64(v)
		}
		if sum != e.replayed {
			return fmt.Errorf("CMS row %d sums to %d, %d packets were replayed", i, sum, e.replayed)
		}
	}
	return nil
}

// cycle is one round of a fleet workload: every daemon ingests one file,
// the fleet rotates the epoch, and the closed-loop client issues the
// workload's queries against the epoch just frozen.
func (e *env) cycle(r int, res *result) {
	first := len(res.ops)
	var frames int
	tm := e.h.timed(func() {
		cyc := e.h.begin("harness.cycle", -1, r)
		for d := range e.daemons {
			t := e.traces[(d+r+2)%len(e.traces)]
			if err := e.replay(e.daemons[d].ctrl, t, cyc, r); err != nil {
				res.fail(err)
			}
			frames += t.Frames()
		}
		id := e.h.begin("netwide.RotateEpoch", cyc, r)
		epoch, err := e.fleet.RotateEpoch(epochTask)
		e.h.end(id)
		if err != nil {
			e.rpcErrs++
			res.fail(err)
		}
		for q := range e.keys {
			k := &e.keys[q]
			start := time.Now()
			id := e.h.begin("netwide.EstimateKeyEpoch", cyc, r)
			est, rep, err := e.fleet.EstimateKeyEpoch(epochTask, epoch, k.key, netwide.EpochQuery{})
			e.h.end(id)
			lat := time.Since(start)
			if err != nil {
				e.rpcErrs++
			} else {
				err = checkEstimate(est, k.truth, e.nEpoch, rep, len(e.daemons))
			}
			res.op(r, lat, 0, err)
		}
		e.h.end(cyc)
	})
	for i := first; i < len(res.ops); i++ {
		res.ops[i].m = tm.m // queries share the cycle's machine factor
	}
	res.busyNs += tm.norm()
	res.rounds = append(res.rounds, roundRec{frames: frames, raw: tm.raw, normNs: tm.norm(), traced: e.h.on})
}

// checkEstimate is the fleet answer check: a count-min estimate over a
// full (non-partial) merge never undercounts and overcounts by at most
// ceil(e/w * N) for the epoch's N packets.
func checkEstimate(est, truth, nEpoch uint64, rep netwide.QueryReport, switches int) error {
	if rep.Partial() || len(rep.Contributed) != switches {
		return fmt.Errorf("partial answer: %s", rep)
	}
	slack := uint64(math.Ceil(math.E / cmsBuckets * float64(nEpoch)))
	if est < truth || est > truth+slack {
		return fmt.Errorf("estimate %d outside [%d, %d]", est, truth, truth+slack)
	}
	return nil
}
