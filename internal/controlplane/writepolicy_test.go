package controlplane

import (
	"sync"
	"sync/atomic"
	"testing"

	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
)

// The register write policy follows the worker count (NewController): one
// worker is every register's sole writer and stores plainly, several share
// the buckets atomically or, with ShardedState, write private lanes.

// TestShardedMeansLanes: Sharded() reports the lane engine exactly when the
// registers have lanes — so never at one worker, where no lane exists.
func TestShardedMeansLanes(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, sharded := range []bool{false, true} {
			c := NewController(Config{Groups: 2, Buckets: 1024, BitWidth: 32, Workers: workers, ShardedState: sharded})
			lanes := false
			for _, g := range c.groups {
				for ci := 0; ci < g.CMUs(); ci++ {
					lanes = lanes || g.CMU(ci).Register().Shards() > 0
				}
			}
			if c.Sharded() != lanes {
				t.Errorf("Workers=%d ShardedState=%v: Sharded() = %v, registers have lanes: %v",
					workers, sharded, c.Sharded(), lanes)
			}
			c.Close()
		}
	}
}

// TestEstimateKeyZeroAlloc: a query's read hold — exclusive at one worker —
// allocates nothing, so a point query stays allocation-free under either
// policy.
func TestEstimateKeyZeroAlloc(t *testing.T) {
	k := packet.KeyFiveTuple.Extract(&packet.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6})
	flow := ParamSpec{Kind: ParamFlowKey, Key: packet.KeyFiveTuple}
	for _, workers := range []int{1, 2} {
		c := NewController(Config{Groups: 2, Buckets: 4096, BitWidth: 32, Workers: workers})
		task, err := c.AddTask(freqSpec("hh", packet.MatchAll, 1024))
		if err != nil {
			t.Fatal(err)
		}
		bloom, err := c.AddTask(TaskSpec{Name: "bloom", Attribute: AttrExistence, Param: flow, MemBuckets: 1024, D: 3})
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = c.EstimateKey(task.ID, k) }); n != 0 {
			t.Errorf("Workers=%d: EstimateKey allocates %.1f times per call, want 0", workers, n)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = c.Contains(bloom.ID, k) }); n != 0 {
			t.Errorf("Workers=%d: Contains allocates %.1f times per call, want 0", workers, n)
		}
		c.Close()
	}
}

// TestSingleWriterContract: at one worker the drain's caller updates every
// register with plain stores, so procGate must keep every other access off
// the registers while a span runs, and the pool must keep a second drain
// off them too. Two goroutines loop ReplayTrace while the others call
// every query, the telemetry fold, both packet entry points, a counter
// reset and a second task's add / resize / remove. Under -race a read
// outside its hold, or two drains at once, is a reported data race; in
// every mode the long-lived CMS rows sum to exactly the packets pushed
// through.
//
//	go test -race -count=1 -run TestSingleWriterContract ./internal/controlplane/
func TestSingleWriterContract(t *testing.T) {
	const calls = 25
	reg := telemetry.NewRegistry()
	c := NewController(Config{Groups: 4, Buckets: 4096, BitWidth: 32, Workers: 1, Telemetry: reg})
	defer c.Close()
	deploy := func(spec TaskSpec) int {
		task, err := c.AddTask(spec)
		if err != nil {
			t.Fatalf("deploy %s: %v", spec.Name, err)
		}
		return task.ID
	}
	flow := ParamSpec{Kind: ParamFlowKey, Key: packet.KeyFiveTuple}
	cms := deploy(freqSpec("cms", packet.MatchAll, 1024))
	hll := deploy(TaskSpec{Name: "hll", Attribute: AttrDistinct, Algorithm: AlgHLL, Param: flow, MemBuckets: 1024})
	bloom := deploy(TaskSpec{Name: "bloom", Attribute: AttrExistence, Param: flow, MemBuckets: 1024, D: 1})
	mrac := deploy(TaskSpec{Name: "mrac", Key: packet.KeyFiveTuple, Attribute: AttrFrequency,
		Algorithm: AlgMRAC, MemBuckets: 1024})

	tr := trace.Generate(trace.Config{Flows: 300, Packets: 4096, Seed: 71})
	frames := mmtrace.FromPackets(tr.Packets)
	batch := tr.Packets[:256]
	k := packet.KeyFiveTuple.Extract(&tr.Packets[0])
	cands := []packet.CanonicalKey{k, packet.KeyFiveTuple.Extract(&tr.Packets[1])}

	var pushed atomic.Uint64
	var stop atomic.Bool
	var replayers sync.WaitGroup
	for r := 0; r < 2; r++ {
		replayers.Add(1)
		go func() {
			defer replayers.Done()
			for i := 0; i < 2 || !stop.Load(); i++ {
				c.ReplayTrace(frames)
				pushed.Add(uint64(frames.Frames()))
			}
		}()
	}

	check := func(what string, err error) {
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	var wg sync.WaitGroup
	for _, fn := range []func(){
		func() { _, err := c.EstimateKey(cms, k); check("EstimateKey", err) },
		func() { _, err := c.Cardinality(hll); check("Cardinality", err) },
		func() { _, err := c.Contains(bloom, k); check("Contains", err) },
		func() { _, err := c.Reported(cms, cands); check("Reported", err) },
		func() { _, _, err := c.Distribution(mrac); check("Distribution", err) },
		func() { _, err := c.ReadRegisters(cms); check("ReadRegisters", err) },
		func() { _, err := c.TaskHandle(cms); check("TaskHandle", err) },
		func() { c.TelemetryDataPlane() },
		func() {
			c.Process(&tr.Packets[0])
			c.ProcessBatch(batch)
			pushed.Add(uint64(1 + len(batch)))
		},
		func() {
			id := deploy(freqSpec("churn", packet.MatchAll, 512))
			_, err := c.ResizeTask(id, 1024)
			check("ResizeTask", err)
			check("ResetTaskCounters", c.ResetTaskCounters(id))
			check("RemoveTask", c.RemoveTask(id))
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				fn()
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	replayers.Wait()

	for r, row := range readAll(t, c, cms) {
		var mass uint64
		for _, v := range row {
			mass += uint64(v)
		}
		if mass != pushed.Load() {
			t.Fatalf("CMS row %d mass %d, want the %d packets pushed", r, mass, pushed.Load())
		}
	}
}
