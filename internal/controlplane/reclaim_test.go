package controlplane

import (
	"fmt"
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
// (it has counted its first chunk in: a register read would hold the gate
// exclusive and so wait the span out), with a channel closed when the
// drain has ended. It returns after the drain has ended, with the
// controller and its mutation journal.
func duringGiantSpan(t *testing.T, mutate func(c *Controller, a *Task, drained <-chan struct{})) (*Controller, []telemetry.Event) {
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
	for c.Pipeline().Packets() == 0 {
		runtime.Gosched()
	}
	mutate(c, a, drained)
	<-drained
	return c, reg.Journal.Events()
}

// graceOf returns the grace wait the journal recorded for the first event of
// the given kind.
func graceOf(t *testing.T, evs []telemetry.Event, kind string) int64 {
	t.Helper()
	return graceFor(t, evs, kind, -1)
}

// graceFor returns the grace wait the journal recorded for the first event
// of the given kind on task id (any task when id < 0).
func graceFor(t *testing.T, evs []telemetry.Event, kind string, id int) int64 {
	t.Helper()
	for _, e := range evs {
		if e.Kind == kind && (id < 0 || e.Task == id) {
			return e.GraceNs
		}
	}
	t.Fatalf("no %q event for task %d in the journal: %+v", kind, id, evs)
	return 0
}

// wholeRegister is a frequency task that fits only in an empty register of
// duringGiantSpan's controller (16,384 buckets per CMU): beside its match-all
// task's partitions it has no room until they are freed. Its filter matches
// no packet of the span.
var wholeRegister = freqSpec("b", packet.Filter{DstPort: 7}, 16384)

// queuedBehindReader runs op on its own goroutine while the caller holds
// procGate shared, and reports whether op queued at the gate behind that
// hold (a queued exclusive hold refuses new shared ones, so TryRLock
// fails) rather than returning first. wait returns op's error once op has
// returned, which a queued op does only after the caller's hold is gone.
func queuedBehindReader(c *Controller, op func() error) (queued bool, wait func() error) {
	done := make(chan error, 1)
	go func() { done <- op() }()
	wait = func() error { return <-done }
	for {
		select {
		case err := <-done:
			return false, func() error { return err }
		default:
		}
		if !c.procGate.TryRLock() {
			return true, wait
		}
		c.procGate.RUnlock()
		runtime.Gosched()
	}
}

// removeBesideReader removes a while a reader that entered before the
// removal is pinned in flight — the test holds procGate shared, as a pool
// span does around its snapshot — runs during with the reader still
// pinned, and deploys spec. The removal must return without waiting for
// the reader; the deploy must queue behind it. It unpins the reader and
// returns the deployed task.
func removeBesideReader(t *testing.T, c *Controller, a *Task, spec TaskSpec, during func()) *Task {
	t.Helper()
	c.procGate.RLock()
	queued, wait := queuedBehindReader(c, func() error { return c.RemoveTask(a.ID) })
	if queued {
		c.procGate.RUnlock()
		_ = wait()
		t.Fatal("RemoveTask waited for a reader in flight: a removal parks its memory instead")
	}
	if err := wait(); err != nil {
		c.procGate.RUnlock()
		t.Fatal(err)
	}
	if during != nil {
		during()
	}
	var b *Task
	queued, wait = queuedBehindReader(c, func() (err error) {
		b, err = c.AddTask(spec)
		return err
	})
	c.procGate.RUnlock()
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if !queued {
		t.Fatal("AddTask returned while a reader of the removed task's snapshot was in flight: it was granted parked memory without a grace period")
	}
	return b
}

// TestReclaimedPartitionStartsClean: a reader that began before RemoveTask
// must not write the freed partition after it — the next task granted that
// memory starts at zero even though a span holding the old snapshot was
// still running when the removal was issued. The removal waits for no
// reader; the placement that takes its memory waits instead.
func TestReclaimedPartitionStartsClean(t *testing.T) {
	var b *Task
	c, evs := duringGiantSpan(t, func(c *Controller, a *Task, _ <-chan struct{}) {
		b = removeBesideReader(t, c, a, wholeRegister, nil)
	})
	for r, sum := range rowSums(readAll(t, c, b.ID)) {
		if sum != 0 {
			t.Fatalf("row %d of the task that inherited the partition sums to %d, want 0: a stale reader wrote reclaimed memory", r, sum)
		}
	}
	// The journal says where the wait went: the removal parked a's memory
	// and returned; the deploy that needed it waited out the reader.
	if g := graceOf(t, evs, "remove"); g != 0 {
		t.Fatalf("remove event records grace_ns %d, want 0: a removal parks its memory instead of waiting", g)
	}
	if g := graceFor(t, evs, "deploy", b.ID); g <= 0 {
		t.Fatalf("deploy event of the task that took the memory records grace_ns %d, want the reader it waited for", g)
	}
}

// TestRemoveParksDuringSpan: memory a removal unlinks while a reader of
// the old snapshot is in flight is parked — neither free nor cleared, so
// FreeBuckets does not count it and it still holds what the span wrote —
// and a placement that fits only there waits the reader out and starts at
// zero. It catches, on scratch copies, "clear at publish" (a's rows read
// zero while the reader is pinned, or the stale span's later writes show
// in b) and "re-grant a parked range without grace" (AddTask returns while
// the reader is pinned).
func TestRemoveParksDuringSpan(t *testing.T) {
	var b *Task
	c, evs := duringGiantSpan(t, func(c *Controller, a *Task, drained <-chan struct{}) {
		locs := c.locate(a)
		b = removeBesideReader(t, c, a, wholeRegister, func() {
			<-drained // the span's writes are over; the pinned reader is not
			for ci, free := range c.FreeBuckets()[0] {
				if want := 16384 - 4096; free != want {
					t.Errorf("CMU %d: FreeBuckets %d beside a pinned reader, want %d: parked memory counted free", ci, free, want)
				}
			}
			for _, loc := range locs {
				row := make([]uint32, loc.Rule.Mem.Buckets)
				loc.Group.CMU(loc.CMU).Register().CopyRange(row, loc.Rule.Mem.Base)
				if rowSums([][]uint32{row})[0] == 0 {
					t.Errorf("CMU %d: the removed task's partition reads zero beside a pinned reader: parked memory was cleared early", loc.CMU)
				}
			}
		})
	})
	for r, sum := range rowSums(readAll(t, c, b.ID)) {
		if sum != 0 {
			t.Fatalf("row %d of the task placed in parked memory sums to %d, want 0", r, sum)
		}
	}
	if g := graceOf(t, evs, "remove"); g != 0 {
		t.Fatalf("remove event records grace_ns %d, want 0", g)
	}
	if g := graceFor(t, evs, "deploy", b.ID); g <= 0 {
		t.Fatalf("deploy event of the task placed in parked memory records grace_ns %d, want the reader it waited for", g)
	}
}

// TestFrozenCopyIsImmutable: once FreezeTask returns, the frozen copy is a
// value — no span that started before the freeze can still move it.
func TestFrozenCopyIsImmutable(t *testing.T) {
	var id int
	var atFreeze []uint64
	c, evs := duringGiantSpan(t, func(c *Controller, a *Task, _ <-chan struct{}) {
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
	duringGiantSpan(t, func(c *Controller, a *Task, _ <-chan struct{}) {
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

// BenchmarkRemoveBesideReplay prices a removal and a deploy on a live
// one-worker controller: eight match-all five-tuple CMS tasks resident (one
// per group) and a replay looping over a Zipf trace beside them while a
// ninth task is added and removed in pairs. It reports each op's p50 and
// p90 in µs (add_p50_us, remove_p50_us, …). A removal that waited out the
// span in flight would read about a span's time; one that parks its memory
// reads no more than a deploy. The wait moves to the deploy that finds its
// group full of parked memory (every fourth here, while the replay never
// pauses), which shows in add_p90_us.
//
//	go test -run '^$' -bench RemoveBesideReplay ./internal/controlplane/
func BenchmarkRemoveBesideReplay(b *testing.B) {
	c := NewController(Config{Groups: 9, Buckets: 65536, BitWidth: 32, Workers: 1})
	defer c.Close()
	for i := 0; i < 8; i++ {
		if _, err := c.AddTask(freqSpec(fmt.Sprintf("cms%d", i), packet.MatchAll, 16384)); err != nil {
			b.Fatal(err)
		}
	}
	tr := mmtrace.FromPackets(trace.Generate(trace.Config{Flows: 100_000, Packets: 1 << 18, ZipfS: 1.1, Seed: 5}).Packets)
	rep, err := mmtrace.NewReplayer(mmtrace.ReplayConfig{Traces: []*mmtrace.Trace{tr}, Workers: 1, Passes: -1})
	if err != nil {
		b.Fatal(err)
	}
	replayed := make(chan struct{})
	go func() {
		defer close(replayed)
		c.ProcessFrameSource(rep)
	}()
	defer func() {
		rep.Stop()
		<-replayed
	}()
	for rep.Packets() == 0 {
		runtime.Gosched()
	}
	churn := freqSpec("churn", packet.MatchAll, 16384)
	adds := make([]time.Duration, 0, b.N)
	removes := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		task, err := c.AddTask(churn)
		if err != nil {
			b.Fatal(err)
		}
		added := time.Now()
		if err := c.RemoveTask(task.ID); err != nil {
			b.Fatal(err)
		}
		adds = append(adds, added.Sub(start))
		removes = append(removes, time.Since(added))
	}
	b.StopTimer()
	for _, op := range []struct {
		name string
		ds   []time.Duration
	}{{"add", adds}, {"remove", removes}} {
		slices.Sort(op.ds)
		for _, q := range []int{50, 90} {
			b.ReportMetric(float64(op.ds[len(op.ds)*q/100].Nanoseconds())/1e3, fmt.Sprintf("%s_p%d_us", op.name, q))
		}
	}
}
