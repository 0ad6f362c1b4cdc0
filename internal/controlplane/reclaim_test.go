package controlplane

import (
	"runtime"
	"sync/atomic"
	"testing"

	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
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

// duringGiantSpan deploys a match-all frequency task on a one-worker,
// shared-state controller, starts one 200k-frame span of a single flow
// through the pool and calls mutate once the span is provably executing
// (the task's registers have started to move). It returns after the drain
// has ended, with the controller and its mutation journal.
func duringGiantSpan(t *testing.T, mutate func(c *Controller, a *Task)) (*Controller, []telemetry.Event) {
	t.Helper()
	const frames = 200_000
	c, reg := telemetryController(t, Config{Groups: 1, Buckets: 16384, BitWidth: 32, Workers: 1})
	t.Cleanup(c.Close)
	a, err := c.AddTask(freqSpec("a", packet.MatchAll, 4096))
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]packet.Packet, frames)
	for i := range ps {
		ps[i] = packet.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
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

// BenchmarkReconfigureCycle is the warm one-command reading of a
// reconfiguration: beside ingest_churn's four resident tasks (bench/
// workloads.go: Groups 9, 65,536-bucket registers, one worker, sharded
// state) add a 3 × 8,192 filtered task, resize it to 16,384, remove it.
//
//	go test -run '^$' -bench ReconfigureCycle -benchmem ./internal/controlplane/
func BenchmarkReconfigureCycle(b *testing.B) {
	c := NewController(Config{Groups: 9, Buckets: 65536, BitWidth: 32, Workers: 1, ShardedState: true})
	defer c.Close()
	resident := []TaskSpec{
		{Name: "freq", Key: packet.KeyFiveTuple, Attribute: AttrFrequency, MemBuckets: 16384, D: 3},
		{Name: "spread", Key: packet.KeyDstIP, Attribute: AttrDistinct,
			Param:     ParamSpec{Kind: ParamFlowKey, Key: packet.KeySrcIP},
			Threshold: 512, MemBuckets: 16384, D: 3},
		{Name: "seen", Attribute: AttrExistence,
			Param:      ParamSpec{Kind: ParamFlowKey, Key: packet.KeyFiveTuple},
			MemBuckets: 16384, D: 3},
		{Name: "queue", Key: packet.KeyFiveTuple, Attribute: AttrMax,
			Param:      ParamSpec{Kind: ParamQueueLength},
			MemBuckets: 16384, D: 3},
	}
	for _, s := range resident {
		if _, err := c.AddTask(s); err != nil {
			b.Fatal(err)
		}
	}
	churn := TaskSpec{
		Name: "churn", Key: packet.KeySrcIP, Attribute: AttrFrequency,
		Filter:     packet.Filter{SrcPrefix: packet.Prefix{Value: 10 << 24, Bits: 8}},
		MemBuckets: 8192, D: 3,
	}
	b.ReportAllocs()
	b.ResetTimer()
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
}
