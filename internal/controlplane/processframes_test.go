package controlplane

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"flymon/internal/core"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
)

// frameSpanSource is a core.FrameSource over one mmapped trace: workers
// race to claim fixed-width spans via an atomic cursor, as mmtrace.Replayer
// does, at widths the replayer's fixed span never takes.
type frameSpanSource struct {
	t    *mmtrace.Trace
	span int
	next atomic.Int64
}

func (s *frameSpanSource) NextFrames(w int) (*mmtrace.Trace, int, int) {
	lo := int(s.next.Add(int64(s.span)) - int64(s.span))
	if lo >= s.t.Frames() {
		return nil, 0, 0
	}
	hi := lo + s.span
	if hi > s.t.Frames() {
		hi = s.t.Frames()
	}
	return s.t, lo, hi
}

func writeFramesTrace(t *testing.T, ps []packet.Packet) *mmtrace.Trace {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if err := w.WritePacket(&ps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "frames.fmt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mt, err := mmtrace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mt.Close() })
	return mt
}

// richTaskSpecs is a task mix spanning every attribute the compiler knows —
// frequency (filtered and unfiltered), distinct, existence, and both max
// algorithms — so the frame engine faces the full compiled-rule surface:
// transforms, bus consumers, filters, and metadata parameters. The
// max-interval task's updates depend on packet order across buckets (the
// IntervalSub chain reads the Bloom stage's pre-update witness), so only
// single-worker replays of it are comparable against a sequential
// reference; withChains=false swaps in the order-independent mix that
// multi-worker drains must reproduce exactly.
func richTaskSpecs(withChains bool) []TaskSpec {
	specs := []TaskSpec{
		{Name: "hh", Key: packet.KeyFiveTuple, Attribute: AttrFrequency, MemBuckets: 4096, D: 3},
		{Name: "tcp-bytes", Filter: packet.Filter{Proto: 6}, Key: packet.KeySrcIP,
			Attribute: AttrFrequency, Param: ParamSpec{Kind: ParamPacketBytes}, MemBuckets: 2048, D: 2},
		{Name: "victims", Key: packet.KeyDstIP, Attribute: AttrDistinct,
			Param: ParamSpec{Kind: ParamFlowKey, Key: packet.KeySrcIP}, MemBuckets: 2048, D: 2},
		{Name: "seen", Key: packet.KeyFiveTuple, Attribute: AttrExistence,
			Param: ParamSpec{Kind: ParamFlowKey, Key: packet.KeyFiveTuple}, MemBuckets: 2048},
		{Name: "qdepth", Key: packet.KeyFiveTuple, Attribute: AttrMax,
			Param: ParamSpec{Kind: ParamQueueLength}, MemBuckets: 2048},
	}
	if withChains {
		specs = append(specs, TaskSpec{
			Name: "interval", Key: packet.KeySrcIP, Attribute: AttrMax,
			Param: ParamSpec{Kind: ParamPacketInterval}, MemBuckets: 2048,
		})
	}
	return specs
}

func newFramesController(t *testing.T, sharded bool, workers int, withChains bool, reg *telemetry.Registry) *Controller {
	t.Helper()
	ctrl := NewController(Config{
		Groups: 9, Buckets: 16384, BitWidth: 32,
		Workers: workers, ShardedState: sharded, Telemetry: reg,
	})
	t.Cleanup(ctrl.Close)
	for _, spec := range richTaskSpecs(withChains) {
		if _, err := ctrl.AddTask(spec); err != nil {
			t.Fatalf("AddTask(%s): %v", spec.Name, err)
		}
	}
	return ctrl
}

func compareTaskRegisters(t *testing.T, want, got *Controller) {
	t.Helper()
	for _, task := range got.Tasks() {
		g, err := got.ReadRegisters(task.ID)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.ReadRegisters(task.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(g) != len(w) {
			t.Fatalf("task %d (%s): %d rows vs %d", task.ID, task.Spec.Name, len(g), len(w))
		}
		for i := range g {
			for j := range g[i] {
				if g[i][j] != w[i][j] {
					t.Fatalf("task %d (%s) row %d bucket %d: frames %d, packets %d",
						task.ID, task.Spec.Name, i, j, g[i][j], w[i][j])
				}
			}
		}
	}
}

// TestProcessFrameSourceMatchesSequential drains raw frame spans through
// the pool (one worker, which writes plainly, and shared and sharded pools
// of several widths) over the full task mix and requires register readouts
// bit-identical to the sequential packet-path replay — the frame engine's
// controller-level acceptance check. The ring rows drain a real
// mmtrace.Replayer instead of the cursor source: the whole replay path, end
// to end.
func TestProcessFrameSourceMatchesSequential(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 300, Packets: 30_000, Seed: 15})
	mt := writeFramesTrace(t, tr.Packets)

	for _, mode := range []struct {
		name    string
		sharded bool
		workers int
		ring    bool
	}{
		{"shared-1", false, 1, false}, // one worker: the single-writer policy
		{"shared-2", false, 2, false},
		{"shared-4", false, 4, false},
		{"sharded-2", true, 2, false},
		{"sharded-4", true, 4, false},
		{"ring-shared-2", false, 2, true},
		{"ring-sharded-2", true, 2, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			// The bus-chained max-interval task is order-dependent across
			// workers; only the single-worker drain replays it bit-exactly.
			withChains := mode.workers == 1 && !mode.sharded
			ref := newFramesController(t, false, 1, withChains, nil)
			ref.ProcessBatch(tr.Packets)
			ctrl := newFramesController(t, mode.sharded, mode.workers, withChains, nil)
			if mode.ring {
				rep, err := mmtrace.NewReplayer(mmtrace.ReplayConfig{
					Traces: []*mmtrace.Trace{mt}, Workers: mode.workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				ctrl.ProcessFrameSource(rep)
				if got := rep.Packets(); got != uint64(len(tr.Packets)) {
					t.Fatalf("ring delivered %d packets, want %d", got, len(tr.Packets))
				}
			} else {
				ctrl.ProcessFrameSource(&frameSpanSource{t: mt, span: 512})
			}
			compareTaskRegisters(t, ref, ctrl)
		})
	}
}

// TestProcessFrameSourceTelemetryExact: after a frame-source drain
// quiesces, per-rule hit counts and packet totals must equal the
// sequential packet path's — the batched teleTick and per-rule batch
// counts must fold to the same totals.
func TestProcessFrameSourceTelemetryExact(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 200, Packets: 20_000, Seed: 16})
	mt := writeFramesTrace(t, tr.Packets)

	refReg := telemetry.NewRegistry()
	ref := newFramesController(t, false, 1, false, refReg)
	ref.ProcessBatch(tr.Packets)

	gotReg := telemetry.NewRegistry()
	ctrl := newFramesController(t, false, 4, false, gotReg)
	ctrl.ProcessFrameSource(&frameSpanSource{t: mt, span: 300})

	refRep := refReg.Report().DataPlane
	gotRep := gotReg.Report().DataPlane
	if gotRep.Packets != refRep.Packets {
		t.Fatalf("packet totals differ: frames %d, packets %d", gotRep.Packets, refRep.Packets)
	}
	refHits := map[telemetry.RuleKey]uint64{}
	for _, r := range refRep.Rules {
		refHits[r.RuleKey] = r.Hits
	}
	if len(gotRep.Rules) != len(refRep.Rules) {
		t.Fatalf("rule counter sets differ: %d vs %d", len(gotRep.Rules), len(refRep.Rules))
	}
	for _, r := range gotRep.Rules {
		if r.Hits != refHits[r.RuleKey] {
			t.Fatalf("rule %+v hits %d, want %d", r.RuleKey, r.Hits, refHits[r.RuleKey])
		}
	}
	if gotRep.Stages.Preparation != refRep.Stages.Preparation {
		t.Fatalf("preparation-stage drops differ: frames %d, packets %d",
			gotRep.Stages.Preparation, refRep.Stages.Preparation)
	}
}

// deployingFrameSource deploys one extra task right before handing out the
// span that starts at frame `at` — a deterministic mid-replay
// reconfiguration when drained by a single worker.
type deployingFrameSource struct {
	frameSpanSource
	ctrl    *Controller
	at      int
	t       *testing.T
	newTask atomic.Int64
}

func (s *deployingFrameSource) NextFrames(w int) (*mmtrace.Trace, int, int) {
	tr, lo, hi := s.frameSpanSource.NextFrames(w)
	if tr != nil && lo == s.at {
		task, err := s.ctrl.AddTask(TaskSpec{
			Name: "late", Key: packet.KeyFiveTuple,
			Attribute: AttrFrequency, MemBuckets: 1024, D: 2,
		})
		if err != nil {
			s.t.Errorf("mid-drain deploy: %v", err)
		} else {
			s.newTask.Store(int64(task.ID))
		}
	}
	return tr, lo, hi
}

// TestProcessFrameSourceReconfigDeterministic: with one worker, a task
// deployed at a known span boundary must produce registers bit-identical
// to a sequential replay that deploys at exactly the same packet index —
// reconfiguration lands at batch boundaries on the frame path too.
func TestProcessFrameSourceReconfigDeterministic(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 150, Packets: 16_000, Seed: 17})
	mt := writeFramesTrace(t, tr.Packets)
	const span, deployAt = 512, 7 * 512

	ref := newFramesController(t, false, 1, true, nil)
	ref.ProcessBatch(tr.Packets[:deployAt])
	if _, err := ref.AddTask(TaskSpec{
		Name: "late", Key: packet.KeyFiveTuple,
		Attribute: AttrFrequency, MemBuckets: 1024, D: 2,
	}); err != nil {
		t.Fatal(err)
	}
	ref.ProcessBatch(tr.Packets[deployAt:])

	ctrl := newFramesController(t, false, 1, true, nil)
	src := &deployingFrameSource{
		frameSpanSource: frameSpanSource{t: mt, span: span},
		ctrl:            ctrl, at: deployAt, t: t,
	}
	ctrl.ProcessFrameSource(src)
	if src.newTask.Load() == 0 {
		t.Fatal("mid-drain deploy never ran")
	}
	compareTaskRegisters(t, ref, ctrl)
}

// TestCombinedReplayConcurrentReadout: ingest_steady's nine CMS tasks —
// every chunk combined — replayed by two shared-register workers while
// another goroutine reads the registers mid-replay; once the replay ends
// every row equals the sequential oracle's. Run under -race (`make race`)
// this also checks the combining scratch is worker-private.
func TestCombinedReplayConcurrentReadout(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 2000, Packets: 60_000, ZipfS: 1.1, Seed: 65})
	build := func(workers int) (*Controller, []int) {
		c := NewController(Config{Groups: 9, Buckets: 16384, BitWidth: 32, Workers: workers})
		t.Cleanup(c.Close)
		var ids []int
		for i := 0; i < 9; i++ {
			task, err := c.AddTask(freqSpec("load", packet.MatchAll, 4096))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, task.ID)
		}
		return c, ids
	}
	ref, _ := build(1)
	ref.ProcessBatch(tr.Packets)
	ctrl, ids := build(2)

	src := &frameSpanSource{t: writeFramesTrace(t, tr.Packets), span: 700}
	done := make(chan struct{})
	reads := 0
	go func() {
		defer close(done)
		ctrl.ProcessFrameSource(src)
	}()
	for replaying := true; replaying; reads++ {
		select {
		case <-done:
			replaying = false
		default:
		}
		if _, err := ctrl.ReadRegisters(ids[reads%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	compareTaskRegisters(t, ref, ctrl)
	t.Logf("%d readouts beside the replay", reads)
}

// BenchmarkProcessFrames times the frame engine alone — no ring, no pool —
// on the benchmark's ingest shapes (bench/workloads.go: Groups 9,
// 65,536-bucket registers, one worker, 3 × 16,384-bucket tasks; 100k flows,
// Zipf 1.1, seed 1). "steady9" is ingest_steady's nine five-tuple CMS tasks
// over a 131,072-frame file; "churn4" ingest_churn's four long-lived shapes
// (CMS, Distinct src-IP per dst-IP at threshold 512, Existence, Max queue
// length) over a 32,768-frame file, every rule but the CMS rows on the
// parameter-column path; "fallback" churn4 plus ingest_churn's
// probabilistic task (a /8-filtered source-address CMS sampled at p = 0.5),
// whose three CMUs run in packet order on the frames its filter matches
// while churn4's stay on the column stage; "single" one CMS over a 4,096-frame file, the shape of a
// fleet_query daemon; "distinct" the nine CMS over 131,072 pairwise-distinct
// five-tuples, duplicate combining's worst case. ns/pkt is per frame;
// distinct% is the share of a chunk's frames (core.FrameChunk) that carry a
// five-tuple not seen earlier in the chunk. Every shape groups by the
// five-tuple and every trace is a whole number of chunks, so the engine
// groups each chunk into distinct% × FrameChunk / 100 representatives on
// average.
//
//	go test -run '^$' -bench ProcessFrames -benchmem ./internal/controlplane/
func BenchmarkProcessFrames(b *testing.B) {
	zipf := func(n int) []packet.Packet {
		return trace.Generate(trace.Config{Flows: 100_000, Packets: n, ZipfS: 1.1, Seed: 1}).Packets
	}
	distinct := make([]packet.Packet, 131072)
	for i := range distinct {
		distinct[i] = packet.Packet{SrcIP: uint32(i), DstIP: 7, SrcPort: 80, DstPort: 443, Proto: 6, Size: 64}
	}
	cms := func(n int) []TaskSpec {
		specs := make([]TaskSpec, n)
		for i := range specs {
			specs[i] = freqSpec("load", packet.MatchAll, 16384)
		}
		return specs
	}
	churn4 := []TaskSpec{
		freqSpec("freq", packet.MatchAll, 16384),
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
	sampled := TaskSpec{Name: "sampled", Key: packet.KeySrcIP, Attribute: AttrFrequency,
		Filter:     packet.Filter{SrcPrefix: packet.Prefix{Value: 10 << 24, Bits: 8}},
		MemBuckets: 16384, D: 3, Prob: 0.5}
	for _, bc := range []struct {
		name  string
		specs []TaskSpec
		ps    []packet.Packet
	}{
		{"steady9", cms(9), zipf(131072)},
		{"churn4", churn4, zipf(32768)},
		{"fallback", append(churn4[:len(churn4):len(churn4)], sampled), zipf(32768)},
		{"single", cms(1), zipf(4096)},
		{"distinct", cms(9), distinct},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := NewController(Config{Groups: 9, Buckets: 65536, BitWidth: 32, Workers: 1})
			defer c.Close()
			for _, spec := range bc.specs {
				if _, err := c.AddTask(spec); err != nil {
					b.Fatal(err)
				}
			}
			snap := c.Pipeline().Compile()
			if want := bc.name != "fallback"; snap.FrameVectorized() != want {
				b.Fatalf("FrameVectorized() = %v, want %v", snap.FrameVectorized(), want)
			}
			tr := mmtrace.FromPackets(bc.ps)
			n := tr.Frames()
			pc := core.NewProcCtx()
			snap.ProcessFrames(pc, tr, 0, n) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap.ProcessFrames(pc, tr, 0, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pkt")
			b.StopTimer()
			b.ReportMetric(100*distinctShare(bc.ps, core.FrameChunk), "distinct%")
		})
	}
}

// distinctShare is the share of ps's frames whose five-tuple is the first
// of its kind within their chunk of width frames.
func distinctShare(ps []packet.Packet, width int) float64 {
	mask := packet.KeyFiveTuple.FieldMask()
	seen := make(map[packet.CanonicalKey]bool, width)
	firsts := 0
	for lo := 0; lo < len(ps); lo += width {
		clear(seen)
		for i := lo; i < min(lo+width, len(ps)); i++ {
			k := packet.ExtractMasked(&ps[i], mask)
			if !seen[k] {
				seen[k] = true
				firsts++
			}
		}
	}
	return float64(firsts) / float64(len(ps))
}

// TestControllerBatchPathZeroAlloc gates the pooled-context sequential
// reference: after warmup, ProcessBatch must not allocate.
func TestControllerBatchPathZeroAlloc(t *testing.T) {
	ctrl := newFramesController(t, false, 1, true, nil)
	tr := trace.Generate(trace.Config{Flows: 100, Packets: 512, Seed: 18})
	ctrl.ProcessBatch(tr.Packets) // warm the pooled context
	if n := testing.AllocsPerRun(50, func() {
		ctrl.ProcessBatch(tr.Packets)
	}); n != 0 {
		t.Fatalf("ProcessBatch allocates %.1f times per batch, want 0", n)
	}
}
