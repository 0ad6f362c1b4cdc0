package algorithms

import (
	"math"
	"testing"
	"testing/quick"

	"flymon/internal/core"
	"flymon/internal/metrics"
	"flymon/internal/packet"
	"flymon/internal/sketch"
	"flymon/internal/trace"
)

// These tests drive the installers directly and feed packets through the
// interpretive Pipeline.Process walk; conformance_test.go holds the forms a
// TaskSpec deploys to their theoretical bounds on the compiled engines.

// pipeline32 builds a pipeline of n groups with 32-bit, `buckets`-bucket
// registers (accuracy experiments use 32-bit counters).
func pipeline32(n, buckets int) *core.Pipeline {
	groups := make([]*core.Group, n)
	for i := range groups {
		groups[i] = core.NewGroup(core.GroupConfig{ID: i, Buckets: buckets, BitWidth: 32})
	}
	return core.NewPipelineWith(groups...)
}

func genTrace(t *testing.T, flows, packets int, seed int64) *trace.Trace {
	t.Helper()
	return trace.Generate(trace.Config{Flows: flows, Packets: packets, Seed: seed})
}

func TestCMSOverestimatesAndTracksTruth(t *testing.T) {
	pl := pipeline32(1, 1<<14)
	task, err := InstallCMS(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, core.Const(1), 3, nil)
	if err != nil {
		t.Fatalf("InstallCMS: %v", err)
	}
	tr := genTrace(t, 2000, 100_000, 1)
	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		pl.Process(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	var are float64
	n := 0
	for k, truth := range exact.Counts() {
		est := uint64(task.EstimateKey(k))
		if est < truth {
			t.Fatalf("CMS underestimated flow: est %d < truth %d", est, truth)
		}
		are += float64(est-truth) / float64(truth)
		n++
	}
	are /= float64(n)
	if are > 0.5 {
		t.Fatalf("CMS ARE %.3f too high for 2000 flows in 3x16K counters", are)
	}
}

func TestCMSByteCounting(t *testing.T) {
	pl := pipeline32(1, 1<<14)
	task, err := InstallCMS(pl.Group(0), 1, packet.MatchAll, packet.KeySrcIP, core.PacketSize(), 3, nil)
	if err != nil {
		t.Fatalf("InstallCMS: %v", err)
	}
	tr := genTrace(t, 500, 20_000, 2)
	exact := sketch.NewExactFrequency(packet.KeySrcIP)
	for i := range tr.Packets {
		pl.Process(&tr.Packets[i])
		exact.Add(&tr.Packets[i], uint64(tr.Packets[i].Size))
	}
	for k, truth := range exact.Counts() {
		if est := uint64(task.EstimateKey(k)); est < truth {
			t.Fatalf("byte CMS underestimated: est %d < truth %d", est, truth)
		}
	}
}

func TestCMSFilterScopesTraffic(t *testing.T) {
	pl := pipeline32(1, 1<<12)
	filter := packet.Filter{DstPort: 80}
	task, err := InstallCMS(pl.Group(0), 7, filter, packet.KeyFiveTuple, core.Const(1), 3, nil)
	if err != nil {
		t.Fatalf("InstallCMS: %v", err)
	}
	in := packet.Packet{SrcIP: 1, DstIP: 2, SrcPort: 9999, DstPort: 80, Proto: 6}
	out := packet.Packet{SrcIP: 1, DstIP: 2, SrcPort: 9999, DstPort: 443, Proto: 6}
	for i := 0; i < 10; i++ {
		pl.Process(&in)
		pl.Process(&out)
	}
	if got := task.EstimateKey(packet.KeyFiveTuple.Extract(&in)); got != 10 {
		t.Fatalf("in-filter flow estimate = %d, want 10", got)
	}
	if got := task.EstimateKey(packet.KeyFiveTuple.Extract(&out)); got != 0 {
		t.Fatalf("out-of-filter flow estimate = %d, want 0", got)
	}
}

func TestHeavyHitterF1HighWithAdequateMemory(t *testing.T) {
	pl := pipeline32(1, 1<<14)
	task, err := InstallCMS(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, core.Const(1), 3, nil)
	if err != nil {
		t.Fatalf("InstallCMS: %v", err)
	}
	tr := genTrace(t, 5000, 300_000, 3)
	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		pl.Process(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	const threshold = 1024
	truth := exact.HeavyHitters(threshold)
	if len(truth) == 0 {
		t.Fatal("trace produced no heavy hitters; adjust workload")
	}
	candidates := make([]packet.CanonicalKey, 0, exact.Flows())
	universe := make(map[packet.CanonicalKey]bool)
	for k := range exact.Counts() {
		candidates = append(candidates, k)
		universe[k] = true
	}
	reported := task.HeavyHitters(candidates, threshold)
	f1 := metrics.Classify(universe, truth, reported).F1()
	if f1 < 0.95 {
		t.Fatalf("heavy-hitter F1 = %.3f, want ≥ 0.95 (truth %d, reported %d)", f1, len(truth), len(reported))
	}
}

func TestSuMaxSumTighterThanCMS(t *testing.T) {
	plCMS := pipeline32(1, 1<<10)
	cms, err := InstallCMS(plCMS.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, core.Const(1), 3, nil)
	if err != nil {
		t.Fatalf("InstallCMS: %v", err)
	}
	plSM := pipeline32(3, 1<<10)
	sm, err := InstallSuMaxSum([]*core.Group{plSM.Group(0), plSM.Group(1), plSM.Group(2)},
		1, packet.MatchAll, packet.KeyFiveTuple, core.Const(1), nil)
	if err != nil {
		t.Fatalf("InstallSuMaxSum: %v", err)
	}
	tr := genTrace(t, 4000, 150_000, 4)
	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		plCMS.Process(&tr.Packets[i])
		plSM.Process(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	var cmsErr, smErr float64
	for k, truth := range exact.Counts() {
		cmsErr += math.Abs(float64(cms.EstimateKey(k))-float64(truth)) / float64(truth)
		smErr += math.Abs(float64(sm.EstimateKey(k))-float64(truth)) / float64(truth)
	}
	if smErr > cmsErr {
		t.Fatalf("SuMax(Sum) total RE %.1f should not exceed CMS %.1f under heavy collision load", smErr, cmsErr)
	}
}

// TestSuMaxTighterThanCMSUnderPressure holds FlyMon-SuMax(Sum) to the
// native Count-Min sketch it is compared with in Fig. 12, at equal depth
// and width under heavy collision load.
func TestSuMaxTighterThanCMSUnderPressure(t *testing.T) {
	cms := sketch.NewCMS(packet.KeyFiveTuple, 3, 1<<10)
	pl := pipeline32(3, 1<<10)
	sm, err := InstallSuMaxSum([]*core.Group{pl.Group(0), pl.Group(1), pl.Group(2)},
		1, packet.MatchAll, packet.KeyFiveTuple, core.Const(1), nil)
	if err != nil {
		t.Fatalf("InstallSuMaxSum: %v", err)
	}
	tr := genTrace(t, 4000, 150_000, 7)
	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		cms.AddPacket(&tr.Packets[i])
		pl.Process(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	var cmsTot, smTot float64
	for k, truth := range exact.Counts() {
		cmsTot += float64(uint64(cms.EstimateKey(k))-truth) / float64(truth)
		smTot += float64(uint64(sm.EstimateKey(k))-truth) / float64(truth)
	}
	if smTot > cmsTot {
		t.Fatalf("SuMax total overestimate %.1f exceeds native CMS %.1f", smTot, cmsTot)
	}
}

func TestSuMaxSumNeverUnderestimatesWhenAlone(t *testing.T) {
	pl := pipeline32(3, 1<<14)
	sm, err := InstallSuMaxSum([]*core.Group{pl.Group(0), pl.Group(1), pl.Group(2)},
		1, packet.MatchAll, packet.KeyFiveTuple, core.Const(1), nil)
	if err != nil {
		t.Fatalf("InstallSuMaxSum: %v", err)
	}
	tr := genTrace(t, 1000, 50_000, 5)
	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		pl.Process(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	for k, truth := range exact.Counts() {
		if est := uint64(sm.EstimateKey(k)); est < truth {
			t.Fatalf("SuMax(Sum) underestimated: est %d < truth %d", est, truth)
		}
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	for _, packed := range []bool{false, true} {
		pl := pipeline32(1, 1<<12)
		task, err := InstallBloom(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, 3, packed, nil)
		if err != nil {
			t.Fatalf("InstallBloom(packed=%v): %v", packed, err)
		}
		tr := genTrace(t, 800, 5_000, 6)
		seen := sketch.NewExactMembership(packet.KeyFiveTuple)
		for i := range tr.Packets {
			pl.Process(&tr.Packets[i])
			seen.Insert(&tr.Packets[i])
		}
		for i := range tr.Packets {
			k := packet.KeyFiveTuple.Extract(&tr.Packets[i])
			if !task.ContainsKey(k) {
				t.Fatalf("packed=%v: false negative for inserted key", packed)
			}
		}
	}
}

// TestBloomNoFalseNegativesProperty inserts arbitrary keys one at a time
// into filters small enough to fill, at every register width and in both
// bit layouts (packed selects the bit modulo the width), and requires each
// key to be found right after its insert.
func TestBloomNoFalseNegativesProperty(t *testing.T) {
	for _, width := range []int{8, 16, 32} {
		for _, packed := range []bool{false, true} {
			g := core.NewGroup(core.GroupConfig{ID: 0, Buckets: 64, BitWidth: width})
			pl := core.NewPipelineWith(g)
			task, err := InstallBloom(g, 1, packet.MatchAll, packet.KeyFiveTuple, 3, packed, nil)
			if err != nil {
				t.Fatalf("InstallBloom(width=%d, packed=%v): %v", width, packed, err)
			}
			f := func(src, dst uint32, sp, dp uint16) bool {
				p := packet.Packet{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: 6}
				pl.Process(&p)
				return task.ContainsKey(packet.KeyFiveTuple.Extract(&p))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
				t.Errorf("width=%d packed=%v: %v", width, packed, err)
			}
		}
	}
}

func TestBloomPackingReducesFalsePositives(t *testing.T) {
	run := func(packed bool) float64 {
		pl := pipeline32(1, 1<<11)
		task, err := InstallBloom(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, 3, packed, nil)
		if err != nil {
			t.Fatalf("InstallBloom: %v", err)
		}
		ins := genTrace(t, 3000, 3000*3, 7)
		for i := range ins.Packets {
			pl.Process(&ins.Packets[i])
		}
		inserted := sketch.NewExactMembership(packet.KeyFiveTuple)
		for i := range ins.Packets {
			inserted.Insert(&ins.Packets[i])
		}
		probe := genTrace(t, 5000, 5000, 99)
		fp, neg := 0, 0
		for i := range probe.Packets {
			k := packet.KeyFiveTuple.Extract(&probe.Packets[i])
			if inserted.Contains(&probe.Packets[i]) {
				continue
			}
			neg++
			if task.ContainsKey(k) {
				fp++
			}
		}
		if neg == 0 {
			t.Fatal("no negative probes")
		}
		return float64(fp) / float64(neg)
	}
	unpacked := run(false)
	packed := run(true)
	if packed >= unpacked {
		t.Fatalf("bit packing should cut FP rate: packed %.4f vs unpacked %.4f", packed, unpacked)
	}
}

func TestHLLCardinalityEstimate(t *testing.T) {
	pl := pipeline32(1, 1<<12) // 4096 buckets
	task, err := InstallHLL(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, core.MemRange{})
	if err != nil {
		t.Fatalf("InstallHLL: %v", err)
	}
	const flows = 20_000
	tr := genTrace(t, flows, flows*2, 8)
	exact := sketch.NewExactCardinality(packet.KeyFiveTuple)
	for i := range tr.Packets {
		pl.Process(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	est, err := task.Estimate()
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	re := metrics.RE(float64(exact.Cardinality()), est)
	if re > 0.1 {
		t.Fatalf("HLL RE = %.3f for %d flows over 4096 buckets, want ≤ 0.1 (est %.0f, truth %d)",
			re, flows, est, exact.Cardinality())
	}
}

func TestLinearCountingEstimate(t *testing.T) {
	pl := pipeline32(1, 1<<12)
	task, err := InstallLinearCounting(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, nil)
	if err != nil {
		t.Fatalf("InstallLinearCounting: %v", err)
	}
	const flows = 10_000
	tr := genTrace(t, flows, flows*2, 9)
	exact := sketch.NewExactCardinality(packet.KeyFiveTuple)
	for i := range tr.Packets {
		pl.Process(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	est, err := task.cardinality(nil)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if re := metrics.RE(float64(exact.Cardinality()), est); re > 0.1 {
		t.Fatalf("LinearCounting RE = %.3f, want ≤ 0.1 (est %.0f, truth %d)", re, est, exact.Cardinality())
	}
}

func TestBeauCoupDDoSVictimDetection(t *testing.T) {
	pl := pipeline32(1, 1<<14)
	const threshold = 512
	task, err := InstallBeauCoup(pl.Group(0), 1, packet.MatchAll,
		packet.KeyDstIP, packet.KeySrcIP, threshold, 3, nil)
	if err != nil {
		t.Fatalf("InstallBeauCoup: %v", err)
	}
	tr := genTrace(t, 3000, 60_000, 10)
	victim := packet.IPv4(10, 0, 0, 99)
	tr.InjectDDoS(victim, 2000, 2, 11)
	exact := sketch.NewExactDistinct(packet.KeyDstIP, packet.KeySrcIP)
	for i := range tr.Packets {
		pl.Process(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	truth := exact.Over(threshold)
	if len(truth) == 0 {
		t.Fatal("no ground-truth victims; workload broken")
	}
	universe := make(map[packet.CanonicalKey]bool)
	candidates := make([]packet.CanonicalKey, 0)
	for k := range exact.Counts() {
		universe[k] = true
		candidates = append(candidates, k)
	}
	reported := task.Reported(candidates)
	cls := metrics.Classify(universe, truth, reported)
	if f1 := cls.F1(); f1 < 0.6 {
		t.Fatalf("BeauCoup DDoS F1 = %.3f (tp=%d fp=%d fn=%d), want ≥ 0.6", f1, cls.TP, cls.FP, cls.FN)
	}
	// The injected victim must be detected.
	vk := packet.KeyDstIP.Extract(&packet.Packet{DstIP: victim})
	if !reported[vk] {
		t.Fatalf("injected victim (distinct=%d) not reported; coupons=%d/%d",
			exact.Count(vk), task.collected(nil, vk), task.Cfg.Collect)
	}
}

func TestSuMaxMaxTracksQueueMaxima(t *testing.T) {
	pl := pipeline32(1, 1<<12)
	task, err := InstallSuMaxMax(pl.Group(0), 1, packet.MatchAll, packet.KeyIPPair,
		core.QueueLength(), 3, nil)
	if err != nil {
		t.Fatalf("InstallSuMaxMax: %v", err)
	}
	tr := genTrace(t, 1000, 40_000, 12)
	exact := sketch.NewExactMax(packet.KeyIPPair)
	for i := range tr.Packets {
		pl.Process(&tr.Packets[i])
		exact.Add(&tr.Packets[i], tr.Packets[i].QueueLength)
	}
	under := 0
	for k, truth := range exact.Values() {
		est := uint64(task.estimate(nil, k))
		if est < truth {
			under++
		}
	}
	if under > 0 {
		t.Fatalf("SuMax(Max) underestimated %d flows; the row minimum must still dominate each flow's own max", under)
	}
}

func TestTowerEstimatesSmallFlowsExactly(t *testing.T) {
	pl := pipeline32(1, 1<<14)
	task, err := InstallTower(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple,
		[]int{16, 8, 4}, nil)
	if err != nil {
		t.Fatalf("InstallTower: %v", err)
	}
	tr := genTrace(t, 1500, 30_000, 13)
	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		pl.Process(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	var are float64
	n := 0
	for k, truth := range exact.Counts() {
		est := uint64(task.estimate(nil, k))
		are += math.Abs(float64(est)-float64(truth)) / float64(truth)
		n++
	}
	if are/float64(n) > 0.3 {
		t.Fatalf("Tower ARE %.3f too high", are/float64(n))
	}
}

func TestTowerAllSaturatedReturnsWidest(t *testing.T) {
	pl := pipeline32(1, 4)
	task, err := InstallTower(pl.Group(0), 1, packet.MatchAll, packet.KeySrcIP, []int{2, 4}, nil)
	if err != nil {
		t.Fatalf("InstallTower: %v", err)
	}
	p := packet.Packet{SrcIP: 1}
	for i := 0; i < 100; i++ {
		pl.Process(&p)
	}
	if got := task.estimate(nil, packet.KeySrcIP.Extract(&p)); got != 15 {
		t.Fatalf("fully saturated estimate = %d, want the widest level's maximum 15", got)
	}
}

func TestCounterBraidsRecoversCounts(t *testing.T) {
	pl := pipeline32(1, 1<<14)
	task, err := InstallCounterBraids(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple,
		8, 32, nil)
	if err != nil {
		t.Fatalf("InstallCounterBraids: %v", err)
	}
	tr := genTrace(t, 300, 60_000, 14)
	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		pl.Process(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	exactCount, n := 0, 0
	for k, truth := range exact.Counts() {
		est := task.estimate(nil, k)
		// Saturating layers can only inflate on collision, never lose
		// counts: the braid must not underestimate.
		if est < truth {
			t.Fatalf("CounterBraids underestimated: est %d < truth %d", est, truth)
		}
		if est == truth {
			exactCount++
		}
		n++
	}
	// The braid is exact for every non-colliding flow; at 300 flows in
	// 16K buckets collisions touch only a handful.
	if frac := float64(exactCount) / float64(n); frac < 0.9 {
		t.Fatalf("CounterBraids exact for only %.1f%% of flows, want ≥ 90%%", frac*100)
	}
}

func TestMaxIntervalTracksInterArrivals(t *testing.T) {
	pl := pipeline32(3, 1<<14)
	task, err := InstallMaxInterval([3]*core.Group{pl.Group(0), pl.Group(1), pl.Group(2)},
		1, packet.MatchAll, packet.KeyFiveTuple, nil)
	if err != nil {
		t.Fatalf("InstallMaxInterval: %v", err)
	}
	tr := genTrace(t, 300, 30_000, 15)
	exact := sketch.NewExactMaxInterval(packet.KeyFiveTuple)
	for i := range tr.Packets {
		pl.Process(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	// With generous memory the estimate should be close for most flows.
	var errSum float64
	n := 0
	for k, truth := range exact.Values() {
		if truth == 0 {
			continue
		}
		est := uint64(task.EstimateKey(k)) * 1000 // µs → ns
		errSum += math.Abs(float64(est)-float64(truth)) / float64(truth)
		n++
	}
	if n == 0 {
		t.Fatal("no multi-packet flows")
	}
	if are := errSum / float64(n); are > 0.2 {
		t.Fatalf("max-interval ARE %.3f too high with 16K buckets for 300 flows", are)
	}
}

func TestProbabilisticExecutionScalesCounts(t *testing.T) {
	pl := pipeline32(1, 1<<14)
	task, err := InstallCMS(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, core.Const(1), 3, nil)
	if err != nil {
		t.Fatalf("InstallCMS: %v", err)
	}
	for _, loc := range pl.Locate(1) {
		loc.Rule.Prob = 0.5
	}
	p := packet.Packet{SrcIP: 42, DstIP: 43, SrcPort: 1, DstPort: 2, Proto: 6}
	const total = 20_000
	for i := 0; i < total; i++ {
		pl.Process(&p)
	}
	got := float64(task.EstimateKey(packet.KeyFiveTuple.Extract(&p)))
	if got < total*0.45 || got > total*0.55 {
		t.Fatalf("p=0.5 sampling counted %.0f of %d, want ≈ half", got, total)
	}
}

func TestSubPartRotationDecorrelatesRows(t *testing.T) {
	// Ablation guard: rows using different sub-parts of one compressed key
	// must index different buckets for most keys.
	pl := pipeline32(1, 1<<14)
	task, err := InstallCMS(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, core.Const(1), 3, nil)
	if err != nil {
		t.Fatalf("InstallCMS: %v", err)
	}
	tr := genTrace(t, 2000, 2000, 16)
	same := 0
	for i := range tr.Packets {
		k := packet.KeyFiveTuple.Extract(&tr.Packets[i])
		if h := task.hash(k); task.index(0, h) == task.index(1, h) {
			same++
		}
	}
	if float64(same)/float64(len(tr.Packets)) > 0.01 {
		t.Fatalf("rows 0 and 1 collide on %d/%d keys; sub-part selection broken", same, len(tr.Packets))
	}
}
