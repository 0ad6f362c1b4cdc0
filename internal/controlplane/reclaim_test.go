package controlplane

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
)

// giantSpanSource is a core.FrameSource that hands the first caller the
// whole trace as one span and closes handed as it does: the longest a
// reader can sit on one snapshot, with a signal for when it starts.
type giantSpanSource struct {
	t      *mmtrace.Trace
	handed chan struct{}
	taken  atomic.Bool
}

func (s *giantSpanSource) NextFrames(int) (*mmtrace.Trace, int, int) {
	if s.taken.Swap(true) {
		return nil, 0, 0
	}
	close(s.handed)
	return s.t, 0, s.t.Frames()
}

func rowSums(rows [][]uint32) []uint64 {
	sums := make([]uint64, len(rows))
	for r, row := range rows {
		for _, v := range row {
			sums[r] += uint64(v)
		}
	}
	return sums
}

// The giant span: giantSpanFrames copies of one packet.
const giantSpanFrames = 200_000

var giantSpanPacket = packet.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}

// duringGiantSpan deploys a match-all frequency task on a one-worker,
// shared-state controller, starts one 200k-frame span of a single flow
// through the pool and calls mutate once the span is provably executing
// (the task's registers have started to move). It returns after the drain
// has ended, with the controller and its mutation journal.
func duringGiantSpan(t *testing.T, mutate func(c *Controller, a *Task)) (*Controller, []telemetry.Event) {
	t.Helper()
	c, reg := telemetryController(t, Config{Groups: 1, Buckets: 16384, BitWidth: 32, Workers: 1})
	t.Cleanup(c.Close)
	a, err := c.AddTask(freqSpec("a", packet.MatchAll, 4096))
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]packet.Packet, giantSpanFrames)
	for i := range ps {
		ps[i] = giantSpanPacket
	}
	src := &giantSpanSource{t: mmtrace.FromPackets(ps), handed: make(chan struct{})}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		c.ProcessFrameSource(src)
	}()
	<-src.handed
	for rowSums(readAll(t, c, a.ID))[0] == 0 {
		runtime.Gosched()
	}
	mutate(c, a)
	<-drained
	return c, reg.Journal.Events()
}

// graceOf returns the grace wait the journal recorded for the one event of
// the given kind.
func graceOf(t *testing.T, evs []telemetry.Event, kind string) int64 {
	t.Helper()
	for _, e := range evs {
		if e.Kind == kind {
			return e.GraceNs
		}
	}
	t.Fatalf("no %q event in the journal: %+v", kind, evs)
	return 0
}

// TestReclaimedPartitionStartsClean: a reader that began before RemoveTask
// must not write the freed partition after it — the next task granted that
// memory starts at zero even though a span holding the old snapshot was
// still running when the removal was issued.
func TestReclaimedPartitionStartsClean(t *testing.T) {
	var b *Task
	c, evs := duringGiantSpan(t, func(c *Controller, a *Task) {
		if err := c.RemoveTask(a.ID); err != nil {
			t.Fatal(err)
		}
		var err error
		// Same geometry, so the allocator grants a's partitions again; a
		// filter no packet of the span matches.
		if b, err = c.AddTask(freqSpec("b", packet.Filter{DstPort: 7}, 4096)); err != nil {
			t.Fatal(err)
		}
	})
	for r, sum := range rowSums(readAll(t, c, b.ID)) {
		if sum != 0 {
			t.Fatalf("row %d of the task that inherited the partition sums to %d, want 0: a stale reader wrote reclaimed memory", r, sum)
		}
	}
	// The journal says why the removal was slow: it waited out the span. A
	// deploy reclaims nothing and waits for nobody.
	if g := graceOf(t, evs, "remove"); g <= 0 {
		t.Fatalf("remove event records grace_ns %d, want the span it waited for", g)
	}
	if g := graceOf(t, evs, "deploy"); g != 0 {
		t.Fatalf("deploy event records grace_ns %d, want 0", g)
	}
}

// TestFrozenCopyIsImmutable: once FreezeTask returns, the frozen copy is a
// value — no span that started before the freeze can still move it.
func TestFrozenCopyIsImmutable(t *testing.T) {
	var id int
	var atFreeze []uint64
	c, evs := duringGiantSpan(t, func(c *Controller, a *Task) {
		id = a.ID
		if err := c.FreezeTask(id); err != nil {
			t.Fatal(err)
		}
		atFreeze = rowSums(readAll(t, c, id))
	})
	for r, sum := range rowSums(readAll(t, c, id)) {
		if sum != atFreeze[r] {
			t.Fatalf("row %d: %d when FreezeTask returned, %d after the drain ended: the frozen copy was still being written", r, atFreeze[r], sum)
		}
	}
	if g := graceOf(t, evs, "freeze"); g <= 0 {
		t.Fatalf("freeze event records grace_ns %d, want the span it waited for", g)
	}
}

// TestResizeReadsQuiescentRows: the rows ResizeTask returns are the old
// partitions' final state, read after the grace period with a plain copy
// while a span keeps replaying beside it. The span loaded the old snapshot,
// so the grace waits it out: every one of its frames is in the old rows,
// bit-identical to the sequential reference replaying the same frames.
func TestResizeReadsQuiescentRows(t *testing.T) {
	var old [][]uint32
	duringGiantSpan(t, func(c *Controller, a *Task) {
		var err error
		if old, err = c.ResizeTask(a.ID, 2048); err != nil {
			t.Fatal(err)
		}
	})
	ref := NewController(Config{Groups: 1, Buckets: 16384, BitWidth: 32, Workers: 1})
	defer ref.Close()
	a, err := ref.AddTask(freqSpec("a", packet.MatchAll, 4096))
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]packet.Packet, giantSpanFrames)
	for i := range ps {
		ps[i] = giantSpanPacket
	}
	ref.ProcessBatch(ps)
	want := readAll(t, ref, a.ID)
	if len(old) != len(want) {
		t.Fatalf("resize returned %d rows, want %d", len(old), len(want))
	}
	for r := range want {
		if !slices.Equal(old[r], want[r]) {
			t.Fatalf("row %d of the resized task's final state differs from the sequential reference (sums %d vs %d)",
				r, rowSums(old[r : r+1])[0], rowSums(want[r : r+1])[0])
		}
	}
}

// BenchmarkReconfigureCycle prices ingest_churn's mutations beside its four
// resident tasks (bench/workloads.go: Groups 9, 65,536-bucket registers,
// one worker, sharded state) on a 3 × 8,192 filtered task keyed on SrcIP.
// "cycle" is the warm reading: add, resize to 16,384, remove, back to back.
// "add", "resize" and "remove" price one op each the way the workload pays
// for it: an untimed 32k-frame replay runs before every op, so the op starts
// with the caches the data plane left; ns/op, B/op and allocs/op count the
// op alone.
//
//	go test -run '^$' -bench ReconfigureCycle -benchmem ./internal/controlplane/
func BenchmarkReconfigureCycle(b *testing.B) {
	c := NewController(Config{Groups: 9, Buckets: 65536, BitWidth: 32, Workers: 1, ShardedState: true})
	defer c.Close()
	for _, s := range churnResident() {
		if _, err := c.AddTask(s); err != nil {
			b.Fatal(err)
		}
	}
	churn := TaskSpec{
		Name: "churn", Key: packet.KeySrcIP, Attribute: AttrFrequency,
		Filter:     packet.Filter{SrcPrefix: packet.Prefix{Value: 10 << 24, Bits: 8}},
		MemBuckets: 8192, D: 3,
	}
	b.Run("cycle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			task, err := c.AddTask(churn)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.ResizeTask(task.ID, 16384); err != nil {
				b.Fatal(err)
			}
			if err := c.RemoveTask(task.ID); err != nil {
				b.Fatal(err)
			}
		}
	})

	tr := mmtrace.FromPackets(trace.Generate(trace.Config{Flows: 100_000, Packets: 32768, Seed: 1}).Packets)
	id := 0 // the churn task, deployed at 8,192 buckets when nonzero
	deploy := func(b *testing.B) {
		if id != 0 {
			if err := c.RemoveTask(id); err != nil {
				b.Fatal(err)
			}
		}
		task, err := c.AddTask(churn)
		if err != nil {
			b.Fatal(err)
		}
		id = task.ID
	}
	remove := func(b *testing.B) {
		if id != 0 {
			if err := c.RemoveTask(id); err != nil {
				b.Fatal(err)
			}
			id = 0
		}
	}
	ops := []struct {
		name      string
		setup, op func(b *testing.B)
	}{
		{"add", remove, deploy},
		{"resize", deploy, func(b *testing.B) {
			if _, err := c.ResizeTask(id, 16384); err != nil {
				b.Fatal(err)
			}
		}},
		{"remove", deploy, remove},
	}
	for _, o := range ops {
		b.Run(o.name, func(b *testing.B) {
			var elapsed time.Duration
			var before, after runtime.MemStats
			var allocs, bytes uint64
			for i := 0; i < b.N; i++ {
				c.ReplayTrace(tr)
				o.setup(b)
				runtime.ReadMemStats(&before)
				start := time.Now()
				o.op(b)
				elapsed += time.Since(start)
				runtime.ReadMemStats(&after)
				allocs += after.Mallocs - before.Mallocs
				bytes += after.TotalAlloc - before.TotalAlloc
			}
			n := float64(b.N)
			b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/op")
			b.ReportMetric(float64(allocs)/n, "allocs/op")
			b.ReportMetric(float64(bytes)/n, "B/op")
		})
	}
	remove(b)
}
