package controlplane

import (
	"sync"
	"testing"

	"flymon/internal/packet"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
)

func telemetryController(t *testing.T, cfg Config) (*Controller, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	return NewController(cfg), reg
}

// TestTelemetryJournalRecordsMutations: every reconfiguration kind lands in
// the journal, in order, with a snapshot-version transition and a latency
// histogram sample; failed mutations are recorded with their error.
func TestTelemetryJournalRecordsMutations(t *testing.T) {
	c, reg := telemetryController(t, Config{Groups: 3, Buckets: 65536, BitWidth: 32})
	task, err := c.AddTask(freqSpec("hh", packet.Filter{}, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FreezeTask(task.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.ThawTask(task.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ResizeTask(task.ID, 8192); err != nil {
		t.Fatal(err)
	}
	if err := c.ResetTaskCounters(task.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.RekeyUnit(1, 0, packet.KeySrcIP); err != nil {
		t.Fatal(err)
	}
	c.Republish()
	if err := c.RemoveTask(task.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveTask(9999); err == nil {
		t.Fatal("removing an unknown task must fail")
	}

	evs := reg.Journal.Events()
	wantKinds := []string{"deploy", "freeze", "thaw", "resize", "reset", "rekey", "republish", "remove", "remove"}
	if len(evs) != len(wantKinds) {
		t.Fatalf("journal holds %d events, want %d: %+v", len(evs), len(wantKinds), evs)
	}
	for i, e := range evs {
		if e.Kind != wantKinds[i] {
			t.Errorf("event %d kind %q, want %q", i, e.Kind, wantKinds[i])
		}
	}
	// The failed remove is journaled with outcome and error text.
	last := evs[len(evs)-1]
	if last.OK || last.Err == "" || last.Task != 9999 {
		t.Errorf("failed remove recorded as %+v, want OK=false with error text and task 9999", last)
	}
	// Mutations that publish must move the version forward; the deploy goes
	// from the constructor's v1.
	if evs[0].VersionBefore != 1 || evs[0].VersionAfter != 2 {
		t.Errorf("deploy versions %d→%d, want 1→2", evs[0].VersionBefore, evs[0].VersionAfter)
	}
	for _, kind := range []string{"freeze", "thaw", "resize", "rekey", "republish"} {
		for _, e := range evs {
			if e.Kind == kind && e.VersionAfter <= e.VersionBefore {
				t.Errorf("%s versions %d→%d, want an advance", kind, e.VersionBefore, e.VersionAfter)
			}
		}
	}
	if reg.Version() != evs[len(evs)-1].VersionAfter {
		t.Errorf("registry version %d, journal ends at %d", reg.Version(), last.VersionAfter)
	}
	if got := reg.MutationLatency.Count(); got != uint64(len(wantKinds)) {
		t.Errorf("mutation latency histogram has %d samples, want %d", got, len(wantKinds))
	}
	// The removed task's counters are gone from reports.
	for _, r := range reg.Report().DataPlane.Rules {
		if r.Task == task.ID {
			t.Errorf("removed task %d still reported: %+v", task.ID, r)
		}
	}
}

// TestTelemetryReportEndToEnd: a scrape through Registry.Report (which
// folds via the controller) carries exact per-rule hits, stage activity,
// register occupancy, and the packet totals.
func TestTelemetryReportEndToEnd(t *testing.T) {
	c, reg := telemetryController(t, Config{Groups: 2, Buckets: 16384, BitWidth: 32})
	task, err := c.AddTask(freqSpec("hh", packet.Filter{}, 4096))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 500, Packets: 10_000, Seed: 7})
	c.ProcessBatch(tr.Packets)

	rep := reg.Report()
	dp := rep.DataPlane
	if dp.Packets != uint64(len(tr.Packets)) {
		t.Errorf("packets = %d, want %d", dp.Packets, len(tr.Packets))
	}
	var hits uint64
	rows := 0
	for _, r := range dp.Rules {
		if r.Task == task.ID {
			hits += r.Hits
			rows++
		}
	}
	if rows != task.D {
		t.Errorf("task reported on %d rows, want %d", rows, task.D)
	}
	if want := uint64(task.D) * uint64(len(tr.Packets)); hits != want {
		t.Errorf("task hits = %d, want %d (D × packets, whole-traffic task)", hits, want)
	}
	if dp.Stages.Initialization != hits || dp.Stages.Operation != hits {
		t.Errorf("stages I=%d O=%d, want both %d", dp.Stages.Initialization, dp.Stages.Operation, hits)
	}
	if dp.Stages.Compression == 0 {
		t.Error("stage C = 0, want > 0")
	}
	if len(dp.Registers) != 2*3 {
		t.Fatalf("%d register gauges, want 6 (2 groups × 3 CMUs)", len(dp.Registers))
	}
	occupied := 0
	for _, g := range dp.Registers {
		occupied += g.Occupied
		if g.Buckets != 16384 || g.BitWidth != 32 {
			t.Errorf("gauge geometry %+v, want 16384×32-bit", g)
		}
	}
	if occupied == 0 {
		t.Error("no occupied buckets reported after 10k packets")
	}
	if rep.ControlPlane.SnapshotVersion != 2 {
		t.Errorf("snapshot version %d, want 2 (constructor + deploy)", rep.ControlPlane.SnapshotVersion)
	}
}

// TestTelemetryPacketOrderFrames: the data-plane report counts the frames
// the frame engine ran in packet order — every frame replayed while a
// sampled task is deployed, none once it is removed, and none beside a
// spliced group no task uses.
func TestTelemetryPacketOrderFrames(t *testing.T) {
	c, reg := telemetryController(t, Config{Groups: 2, Buckets: 16384, BitWidth: 32, Workers: 1})
	defer c.Close()
	if _, err := c.AddTask(freqSpec("hh", packet.Filter{}, 4096)); err != nil {
		t.Fatal(err)
	}
	sampled := freqSpec("sampled", packet.Filter{}, 4096)
	sampled.Prob = 0.5
	task, err := c.AddTask(sampled)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 500, Packets: 3_000, Seed: 7})
	replayPackets(c, tr.Packets)
	frames := uint64(len(tr.Packets))
	if got := reg.Report().DataPlane.PacketOrderFrames; got != frames {
		t.Fatalf("packet-order frames = %d with a sampled task, want %d", got, frames)
	}
	if err := c.RemoveTask(task.ID); err != nil {
		t.Fatal(err)
	}
	replayPackets(c, tr.Packets)
	dp := reg.Report().DataPlane
	if dp.PacketOrderFrames != frames || dp.Packets != 2*frames {
		t.Fatalf("after the removal: %d of %d packets in packet order, want %d of %d",
			dp.PacketOrderFrames, dp.Packets, frames, 2*frames)
	}

	idle, idleReg := telemetryController(t, Config{Groups: 2, SplicedGroups: 1, Buckets: 16384, BitWidth: 32, Workers: 1})
	defer idle.Close()
	if _, err := idle.AddTask(freqSpec("hh", packet.Filter{}, 4096)); err != nil {
		t.Fatal(err)
	}
	replayPackets(idle, tr.Packets)
	if dp := idleReg.Report().DataPlane; dp.PacketOrderFrames != 0 || dp.Packets != frames {
		t.Fatalf("beside an idle spliced group: %d of %d packets in packet order, want 0 of %d",
			dp.PacketOrderFrames, dp.Packets, frames)
	}
}

// TestTelemetryRekeyUnit: on-the-fly key reconfiguration republishes and is
// bounds-checked.
func TestTelemetryRekeyUnit(t *testing.T) {
	c, reg := telemetryController(t, Config{Groups: 1, Buckets: 65536, BitWidth: 32})
	v0 := c.SnapshotVersion()
	if err := c.RekeyUnit(0, 0, packet.KeySrcIP); err != nil {
		t.Fatal(err)
	}
	if got := c.Pipeline().Group(0).UnitSpec(0).String(); got != packet.KeySrcIP.String() {
		t.Errorf("unit 0 keyed on %s after rekey, want %s", got, packet.KeySrcIP)
	}
	if c.SnapshotVersion() != v0+1 {
		t.Errorf("version %d after rekey, want %d (must republish)", c.SnapshotVersion(), v0+1)
	}
	if err := c.RekeyUnit(5, 0, packet.KeySrcIP); err == nil {
		t.Fatal("rekey of a nonexistent group must fail")
	}
	evs := reg.Journal.Events()
	if len(evs) != 2 || evs[0].Kind != "rekey" || !evs[0].OK || evs[1].OK {
		t.Fatalf("journal = %+v, want one ok rekey and one failed rekey", evs)
	}
}

// TestTelemetryFoldDuringReplay: scraping full reports while the pool
// drains a trace must be race-free (the -race build is the point of this
// test) and end exact once the writers quiesce.
func TestTelemetryFoldDuringReplay(t *testing.T) {
	for _, shardedCfg := range []bool{false, true} {
		name := "shared"
		if shardedCfg {
			name = "sharded"
		}
		t.Run(name, func(t *testing.T) {
			c, reg := telemetryController(t, Config{
				Groups: 2, Buckets: 16384, BitWidth: 32, Workers: 4, ShardedState: shardedCfg,
			})
			defer c.Close()
			task, err := c.AddTask(freqSpec("hh", packet.Filter{}, 4096))
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.Generate(trace.Config{Flows: 400, Packets: 8_000, Seed: 9})

			const rounds = 8
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_ = reg.Report()
					}
				}
			}()
			for r := 0; r < rounds; r++ {
				replayPackets(c, tr.Packets)
			}
			close(stop)
			wg.Wait()

			var hits uint64
			for _, row := range reg.Report().DataPlane.Rules {
				if row.Task == task.ID {
					hits += row.Hits
				}
			}
			want := uint64(task.D) * uint64(rounds*len(tr.Packets))
			if hits != want {
				t.Fatalf("task hits = %d after quiesce, want %d exactly", hits, want)
			}
			if shardedCfg {
				// The sharded packet path uses the plain per-lane update
				// kernel, which is the one Accesses counts (the shared
				// concurrent Apply path deliberately does not).
				var accesses uint64
				for _, g := range reg.Report().DataPlane.Registers {
					accesses += g.Accesses
				}
				if accesses == 0 {
					t.Error("sharded run reported 0 register accesses")
				}
			}
		})
	}
}
