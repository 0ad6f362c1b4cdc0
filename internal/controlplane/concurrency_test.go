package controlplane

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

func freqSpec(name string, filter packet.Filter, buckets int) TaskSpec {
	return TaskSpec{
		Name: name, Filter: filter, Key: packet.KeyFiveTuple,
		Attribute: AttrFrequency, MemBuckets: buckets, D: 3,
	}
}

// replayPackets pushes ps through c the way every product caller does:
// encoded as a frame trace and drained by the controller's pool.
func replayPackets(c *Controller, ps []packet.Packet) {
	c.ReplayTrace(mmtrace.FromPackets(ps))
}

// readAll reads every register row of a task, failing the test on error.
func readAll(t *testing.T, c *Controller, id int) [][]uint32 {
	t.Helper()
	rows, err := c.ReadRegisters(id)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestBatchMatchesSequential: the batch fast path and the per-packet path
// produce identical register state for deterministic (non-probabilistic)
// tasks.
func TestBatchMatchesSequential(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 800, Packets: 30_000, Seed: 11})
	build := func() (*Controller, int) {
		c := NewController(Config{Groups: 2, Buckets: 16384, BitWidth: 32})
		task, err := c.AddTask(freqSpec("hh", packet.MatchAll, 4096))
		if err != nil {
			t.Fatal(err)
		}
		return c, task.ID
	}

	cSeq, idSeq := build()
	for i := range tr.Packets {
		cSeq.Process(&tr.Packets[i])
	}
	cBatch, idBatch := build()
	cBatch.ProcessBatch(tr.Packets)

	a, b := readAll(t, cSeq, idSeq), readAll(t, cBatch, idBatch)
	for r := range a {
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("row %d bucket %d: sequential %d != batch %d", r, i, a[r][i], b[r][i])
			}
		}
	}
}

// TestParallelSingleWorkerMatchesBatch: a one-worker pool drains a trace
// in order, bit-for-bit the sequential reference.
func TestParallelSingleWorkerMatchesBatch(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 800, Packets: 30_000, Seed: 12})
	build := func() (*Controller, int) {
		c := NewController(Config{Groups: 2, Buckets: 16384, BitWidth: 32, Workers: 1})
		t.Cleanup(c.Close)
		task, err := c.AddTask(freqSpec("hh", packet.MatchAll, 4096))
		if err != nil {
			t.Fatal(err)
		}
		return c, task.ID
	}

	cBatch, idBatch := build()
	cBatch.ProcessBatch(tr.Packets)
	cPar, idPar := build()
	replayPackets(cPar, tr.Packets)

	a, b := readAll(t, cBatch, idBatch), readAll(t, cPar, idPar)
	for r := range a {
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("row %d bucket %d: batch %d != 1-worker replay %d", r, i, a[r][i], b[r][i])
			}
		}
	}
}

// TestParallelExactMass: frequency counting is per-bucket commutative, so
// a many-worker replay keeps every row's total mass exact.
func TestParallelExactMass(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 500, Packets: 40_000, Seed: 13})
	c := NewController(Config{Groups: 1, Buckets: 16384, BitWidth: 32, Workers: 8})
	defer c.Close()
	task, err := c.AddTask(freqSpec("hh", packet.MatchAll, 4096))
	if err != nil {
		t.Fatal(err)
	}
	replayPackets(c, tr.Packets)
	for r, row := range readAll(t, c, task.ID) {
		var mass uint64
		for _, v := range row {
			mass += uint64(v)
		}
		if mass != uint64(len(tr.Packets)) {
			t.Fatalf("row %d mass %d, want %d", r, mass, len(tr.Packets))
		}
	}
}

// TestConcurrentReconfigStress hammers the pool's frame drain while the
// control plane adds, freezes, thaws, resizes, and removes tasks — the
// paper's on-the-fly reconfiguration claim, verified under -race. A stable
// task owns a disjoint traffic slice throughout; its counters must stay
// exact no matter how many snapshots were swapped mid-flight.
func TestConcurrentReconfigStress(t *testing.T) {
	const (
		batches   = 40
		batchSize = 2_000
	)
	c := NewController(Config{Groups: 4, Buckets: 16384, BitWidth: 32, Workers: 4})
	defer c.Close()

	// The stable task measures DstPort=9 traffic only.
	stable, err := c.AddTask(freqSpec("stable", packet.Filter{DstPort: 9}, 2048))
	if err != nil {
		t.Fatal(err)
	}

	tr := trace.Generate(trace.Config{Flows: 400, Packets: batches * batchSize, Seed: 14})
	for i := range tr.Packets {
		tr.Packets[i].DstPort = 9
	}

	var processed atomic.Uint64
	var wg sync.WaitGroup

	// Data plane: replay the trace through the pool, one drain per batch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			seg := tr.Packets[b*batchSize : (b+1)*batchSize]
			c.ReplayTrace(mmtrace.FromPackets(seg))
			processed.Add(uint64(len(seg)))
		}
	}()

	// Control plane: churn tasks on a disjoint traffic slice (DstPort=7).
	wg.Add(1)
	go func() {
		defer wg.Done()
		churn := freqSpec("churn", packet.Filter{DstPort: 7}, 1024)
		for i := 0; i < 60; i++ {
			task, err := c.AddTask(churn)
			if err != nil {
				continue // transiently out of resources: keep churning
			}
			switch i % 4 {
			case 0:
				_ = c.FreezeTask(task.ID)
				_ = c.ThawTask(task.ID)
			case 1:
				_, _ = c.ResizeTask(task.ID, 2048)
			case 2:
				_, _ = c.ReadRegisters(task.ID)
			}
			if err := c.RemoveTask(task.ID); err != nil {
				t.Errorf("remove churn task: %v", err)
				return
			}
		}
	}()

	// Control-plane reader: queries must never crash mid-swap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		k := packet.KeyFiveTuple.Extract(&tr.Packets[0])
		for i := 0; i < 200; i++ {
			_, _ = c.EstimateKey(stable.ID, k)
			_ = c.Tasks()
			_ = c.FreeBuckets()
		}
	}()

	wg.Wait()

	// Every packet went through exactly one snapshot, and every snapshot
	// contained the stable task: its register mass must be exact.
	for r, row := range readAll(t, c, stable.ID) {
		var mass uint64
		for _, v := range row {
			mass += uint64(v)
		}
		if mass != processed.Load() {
			t.Fatalf("stable task row %d mass %d, want %d: reconfiguration must not disturb co-resident tasks",
				r, mass, processed.Load())
		}
	}
}

// TestSnapshotPublishedOnMutation: a packet processed after AddTask must
// hit the new task without any explicit refresh, and stop hitting it after
// RemoveTask — the RCU swap is part of the mutation.
func TestSnapshotPublishedOnMutation(t *testing.T) {
	c := NewController(Config{Groups: 1, Buckets: 4096, BitWidth: 32})
	task, err := c.AddTask(freqSpec("t", packet.MatchAll, 1024))
	if err != nil {
		t.Fatal(err)
	}
	p := packet.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	c.Process(&p)
	k := packet.KeyFiveTuple.Extract(&p)
	if v, _ := c.EstimateKey(task.ID, k); v != 1 {
		t.Fatalf("estimate after install = %v, want 1", v)
	}

	if err := c.FreezeTask(task.ID); err != nil {
		t.Fatal(err)
	}
	c.Process(&p) // frozen: must not count
	if v, _ := c.EstimateKey(task.ID, k); v != 1 {
		t.Fatalf("estimate after freeze = %v, want 1 (frozen rules match no traffic)", v)
	}

	if err := c.ThawTask(task.ID); err != nil {
		t.Fatal(err)
	}
	c.Process(&p)
	if v, _ := c.EstimateKey(task.ID, k); v != 2 {
		t.Fatalf("estimate after thaw = %v, want 2", v)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for 20 ms: goroutines on their way out, such as a closed pool's workers,
// are gone by then.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for quiet, i := 0, 0; quiet < 4 && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, quiet = m, 0
		} else {
			quiet++
		}
	}
	return n
}

// TestReplayTraceReusesWorkerPool: the caller of a drain is the pool's
// worker 0 and its other workers are started once and reused, so a
// four-worker controller runs three pool goroutines after its first drain
// and no more after any number of drains; the sequential reference and a
// controller that never replays start none.
func TestReplayTraceReusesWorkerPool(t *testing.T) {
	before := settledGoroutines()
	c := NewController(Config{Groups: 2, Buckets: 16384, BitWidth: 32, Workers: 4})
	defer c.Close()
	if _, err := c.AddTask(freqSpec("hh", packet.MatchAll, 4096)); err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 200, Packets: 4096, Seed: 21})

	c.ProcessBatch(tr.Packets)
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("NewController + ProcessBatch started %d goroutines, want 0", got-before)
	}
	for call := 0; call < 21; call++ {
		replayPackets(c, tr.Packets)
		if got := runtime.NumGoroutine(); got != before+c.Workers()-1 {
			t.Fatalf("%d goroutines after %d drains, want %d (Workers−1, no per-call spawning)", got-before, call+1, c.Workers()-1)
		}
	}
}

// TestControllerCloseShutsPool: Close stops the pool's goroutines, and a
// drain after Close runs on its caller alone — it starts nothing, at one
// worker or several, and still counts every packet. A double Close is
// harmless.
func TestControllerCloseShutsPool(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 50, Packets: 512, Seed: 23})
	for _, w := range []int{1, 2} {
		before := settledGoroutines()
		c := NewController(Config{Groups: 1, Buckets: 4096, BitWidth: 32, Workers: w})
		task, err := c.AddTask(freqSpec("hh", packet.MatchAll, 1024))
		if err != nil {
			t.Fatal(err)
		}
		replayPackets(c, tr.Packets)
		c.Close()
		if n := settledGoroutines(); n != before {
			t.Fatalf("workers %d: %d goroutines outlive Close", w, n-before)
		}
		replayPackets(c, tr.Packets)
		if got := runtime.NumGoroutine(); got != before {
			t.Fatalf("workers %d: a replay after Close left %d goroutines running", w, got-before)
		}
		for r, row := range readAll(t, c, task.ID) {
			var mass uint64
			for _, v := range row {
				mass += uint64(v)
			}
			if mass != 2*512 {
				t.Fatalf("workers %d: row %d mass %d, want %d", w, r, mass, 2*512)
			}
		}
		c.Close()
	}
}
