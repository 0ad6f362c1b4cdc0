package netwide

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
)

// TestChaosEpochStragglerMatrix drives the straggler drill from the
// issue across seeds: a partitioned switch misses a fleet rotation, the
// partition heals, and the now reachable-but-behind switch must be
// classified as a straggler (not a failure) by every policy — wait
// blocks bounded and fails coherently, skip/partial answer k-of-n with
// the straggler named in the QueryReport and the merged estimate a valid
// lower bound, and a mid-wait catch-up turns a blocked wait query into a
// full-fleet answer. No goroutine leaks under any seed.
func TestChaosEpochStragglerMatrix(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			check := gateFleetGoroutines(t)
			t.Cleanup(check)
			cfg := fleetConfig()
			// Switches 0 and 1: plain daemons. Switch 2: behind the gate.
			var (
				ctrls []*controlplane.Controller
				addrs []string
			)
			for i := 0; i < 2; i++ {
				ctrl := controlplane.NewController(cfg)
				srv := rpc.NewServer(ctrl, nil)
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				ctrls = append(ctrls, ctrl)
				addrs = append(addrs, addr)
			}
			ctrl2, gate, addr2, _ := gatedDaemon(t, cfg, seed)
			ctrls = append(ctrls, ctrl2)
			addrs = append(addrs, addr2)

			var clients []*rpc.Client
			for i, addr := range addrs {
				c, err := rpc.DialOptions(addr, rpc.Options{
					DialTimeout:      500 * time.Millisecond,
					CallTimeout:      500 * time.Millisecond,
					MaxRetries:       -1,
					BreakerThreshold: 1000,
					Seed:             seed*100 + int64(i),
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				clients = append(clients, c)
			}
			tele := &telemetry.FleetStats{}
			fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{
				AllowPartial: true,
				Telemetry:    tele,
			})

			if err := fleet.DeployEpoch(cmsSpec("ep")); err != nil {
				t.Fatal(err)
			}
			tr1 := trace.Generate(trace.Config{Flows: 200, Packets: 6_000, ZipfS: 1.1, Seed: seed})
			for i := range tr1.Packets {
				ctrls[i%3].Process(&tr1.Packets[i])
			}
			if ep, err := fleet.RotateEpoch("ep"); err != nil || ep != 1 {
				t.Fatalf("healthy rotation: epoch %d err %v", ep, err)
			}
			key := packet.KeyFiveTuple.Extract(&tr1.Packets[0])
			if _, report, err := fleet.EstimateKeyEpoch("ep", 1, key, EpochQuery{}); err != nil || report.Partial() {
				t.Fatalf("healthy epoch query: report %+v err %v", report, err)
			}

			// Partition switch 2, then rotate: the decree reaches only 2/3
			// switches (AllowPartial lets the fleet move on), so switch 2 is
			// now one epoch behind.
			gate.Partition()
			// The daemon's connection handler parked in a Read() from before
			// the flip still delivers the FIRST post-partition request (the
			// gate is checked at Read entry). Flush it with a benign read-only
			// probe — its response is blackholed, the client tears the
			// connection down, and every later request meets a fully gated
			// connection, so the rotation decree below is guaranteed lost.
			if _, err := clients[2].ReadEpoch("ep", 1); err == nil {
				t.Fatal("probe through a partitioned gate must fail")
			}
			tr2 := trace.Generate(trace.Config{Flows: 200, Packets: 6_000, ZipfS: 1.1, Seed: seed + 50})
			for i := range tr2.Packets {
				ctrls[i%3].Process(&tr2.Packets[i])
			}
			if ep, err := fleet.RotateEpoch("ep"); err != nil || ep != 2 {
				t.Fatalf("partitioned rotation: epoch %d err %v", ep, err)
			}

			// While partitioned the switch is UNREACHABLE: a query reports it
			// failed, not straggling.
			_, report, err := fleet.QueryEpochRows("ep", 2, EpochQuery{Policy: StragglerSkip})
			if err != nil {
				t.Fatalf("k-of-n query during partition: %v", err)
			}
			if _, ok := report.Failed[2]; !ok || len(report.Stragglers) != 0 {
				t.Fatalf("partitioned report = %v", report)
			}
			// Epoch 1 was merged completely before the partition: that stored
			// answer is still served, whole, with switch 2 unreachable.
			if _, report, err := fleet.EstimateKeyEpoch("ep", 1, key, EpochQuery{}); err != nil || !report.Cached || report.Partial() {
				t.Fatalf("stored epoch-1 answer during partition: report %v err %v", report, err)
			}

			// Heal: now it is reachable but BEHIND — a straggler.
			gate.Heal()

			// skip: immediate k-of-n answer naming the straggler and its epoch.
			pk, report, err := fleet.EstimateKeyEpoch("ep", 2, key, EpochQuery{Policy: StragglerSkip})
			if err != nil {
				t.Fatalf("skip-policy estimate: %v", err)
			}
			if got := report.Stragglers[2]; got != 1 || len(report.Failed) != 0 {
				t.Fatalf("skip report = %v (straggler epoch %d, want 1)", report, got)
			}
			if len(report.Contributed) != 2 || !report.Partial() {
				t.Fatalf("skip contributed = %v", report.Contributed)
			}

			// wait: blocks at most ~Wait, then fails coherently — a wait-policy
			// caller asked for all-or-nothing.
			start := time.Now()
			_, report, err = fleet.QueryEpochRows("ep", 2, EpochQuery{Wait: 300 * time.Millisecond})
			elapsed := time.Since(start)
			var pf *PartialFailureError
			if !errors.As(err, &pf) {
				t.Fatalf("wait on straggler = %v (%T), want PartialFailureError", err, err)
			}
			if got := pf.Stragglers(); len(got) != 1 || got[0] != 2 {
				t.Fatalf("wait failure names %v, want [2]", got)
			}
			if report.Stragglers[2] != 1 {
				t.Fatalf("wait report = %v", report)
			}
			if elapsed < 250*time.Millisecond || elapsed > 3*time.Second {
				t.Fatalf("wait blocked %v, want bounded near 300ms", elapsed)
			}

			// partial: same bounded poll, but answers k-of-n instead of failing.
			rowsPartial, report, err := fleet.QueryEpochRows("ep", 2, EpochQuery{Policy: StragglerPartial, Wait: 200 * time.Millisecond})
			if err != nil {
				t.Fatalf("partial-policy query: %v", err)
			}
			if report.Stragglers[2] != 1 || len(report.Contributed) != 2 {
				t.Fatalf("partial report = %v", report)
			}
			// None of the k-of-n answers above was stored: each went back to
			// the fleet and found the straggler again.
			if report.Cached || storedMerges(fleet.epochTask("ep").window[2]) != 0 {
				t.Fatalf("a partial epoch-2 answer was stored (report %v)", report)
			}

			// Mid-wait catch-up: a wait query blocks, the straggler is rotated
			// to the target, and the same query completes with the full fleet.
			type res struct {
				est    uint64
				report QueryReport
				err    error
			}
			done := make(chan res, 1)
			go func() {
				est, report, err := fleet.EstimateKeyEpoch("ep", 2, key, EpochQuery{Wait: 8 * time.Second})
				done <- res{est, report, err}
			}()
			time.Sleep(100 * time.Millisecond)
			if _, err := clients[2].EpochRotate("ep", 2); err != nil {
				t.Fatalf("manual straggler catch-up: %v", err)
			}
			r := <-done
			if r.err != nil {
				t.Fatalf("wait query after catch-up: %v", r.err)
			}
			if len(r.report.Contributed) != 3 || r.report.Partial() || r.report.Cached {
				t.Fatalf("caught-up report = %v", r.report)
			}
			// That first complete answer is the one kept: every policy now
			// reads it, full fleet, no RPC.
			full, report, err := fleet.EstimateKeyEpoch("ep", 2, key, EpochQuery{Policy: StragglerSkip})
			if err != nil || !report.Cached || len(report.Contributed) != 3 || full != r.est {
				t.Fatalf("estimate after catch-up = %d (want %d), report %v, err %v", full, r.est, report, err)
			}
			// k-of-n bound: the earlier 2-of-3 estimate cannot exceed the full
			// 3-of-3 merge (additive registers, non-negative contributions).
			if pk > r.est {
				t.Fatalf("partial estimate %d exceeds full estimate %d", pk, r.est)
			}
			for ri := range rowsPartial {
				_ = ri // rowsPartial retained: the merge produced usable rows
			}

			// The fleet keeps rotating and the recovered switch stays in step.
			if ep, err := fleet.RotateEpoch("ep"); err != nil || ep != 3 {
				t.Fatalf("post-heal rotation: epoch %d err %v", ep, err)
			}
			if _, report, err := fleet.QueryEpochRows("ep", 3, EpochQuery{}); err != nil || report.Partial() {
				t.Fatalf("post-heal full query: report %v err %v", report, err)
			}

			// Straggler outcomes landed in telemetry.
			mt := &tele.MergeTree
			if mt.StragglersSkipped.Load() == 0 || mt.StragglersTimedOut.Load() == 0 || mt.StragglerWaits.Load() == 0 {
				t.Fatalf("straggler telemetry: skipped %d timed out %d caught up %d",
					mt.StragglersSkipped.Load(), mt.StragglersTimedOut.Load(), mt.StragglerWaits.Load())
			}
		})
	}
}
