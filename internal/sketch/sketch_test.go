package sketch

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"flymon/internal/metrics"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

func genTrace(flows, packets int, seed int64) *trace.Trace {
	return trace.Generate(trace.Config{Flows: flows, Packets: packets, Seed: seed})
}

// --- CMS ---

func TestCMSNeverUnderestimatesProperty(t *testing.T) {
	s := NewCMS(packet.KeyFiveTuple, 3, 256)
	truth := map[packet.CanonicalKey]uint32{}
	f := func(src uint32, sp uint16) bool {
		p := packet.Packet{SrcIP: src, SrcPort: sp, Proto: 6}
		s.AddPacket(&p)
		k := packet.KeyFiveTuple.Extract(&p)
		truth[k]++
		return s.EstimateKey(k) >= truth[k]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCMSAccuracy(t *testing.T) {
	s := NewCMS(packet.KeyFiveTuple, 3, 1<<14)
	tr := genTrace(2000, 100_000, 1)
	exact := NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		s.AddPacket(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	est := map[packet.CanonicalKey]uint64{}
	for k := range exact.Counts() {
		est[k] = uint64(s.EstimateKey(k))
	}
	if are := metrics.ARE(exact.Counts(), est); are > 0.1 {
		t.Fatalf("CMS ARE %.3f with ample memory", are)
	}
}

func TestCMSGeometry(t *testing.T) {
	s := NewCMS(packet.KeySrcIP, 2, 1000)
	if s.w != 1024 {
		t.Fatalf("width must round to a power of two, got %d", s.w)
	}
	if s.d != 2 || len(s.rows) != 2 || len(s.rows[0]) != 1024 {
		t.Fatalf("geometry wrong: d=%d rows=%d", s.d, len(s.rows))
	}
	k := packet.KeySrcIP.Extract(&packet.Packet{SrcIP: 1})
	s.Add(&packet.Packet{SrcIP: 1}, 5)
	s.Reset()
	if s.EstimateKey(k) != 0 {
		t.Fatal("reset must clear counters")
	}
}

func TestCMSSaturatingAdd(t *testing.T) {
	if satAdd32(^uint32(0)-1, 5) != ^uint32(0) {
		t.Fatal("satAdd32 must clamp at max")
	}
	if satAdd32(1, 2) != 3 {
		t.Fatal("satAdd32 must add normally")
	}
}

// --- Control-plane estimators ---
//
// The estimators are fed registers filled test-side from ideal hashes: n
// distinct keys are n independent uniform 32-bit compressed keys. How the
// CMU compositions fill the same registers is the conformance suite's
// business (flymon/internal/core/algorithms).

// hllRanks fills a 2^b-register rank file from 32-bit compressed keys the
// way FlyMon-HLL's rule does: the low b bits pick the register, the rank is
// the 1-based leading-one position of the remaining 32−b bits.
func hllRanks(hashes []uint32, b int) []uint32 {
	regs := make([]uint32, 1<<b)
	for _, h := range hashes {
		rest := h &^ (1<<b - 1)
		rank := uint32(bits.LeadingZeros32(rest)) + 1
		if rest == 0 {
			rank = uint32(32 - b + 1)
		}
		regs[h&(1<<b-1)] = max(regs[h&(1<<b-1)], rank)
	}
	return regs
}

func randomHashes(n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	hs := make([]uint32, n)
	for i := range hs {
		hs[i] = rng.Uint32()
	}
	return hs
}

func TestHLLAccuracyAcrossScales(t *testing.T) {
	const b = 12 // 4096 registers: standard error 1.04/√4096 ≈ 1.6%
	bound := 4 * 1.04 / math.Sqrt(1<<b)
	// 1M keys is 244× the register count: far past 2^(32−b)/30, where a
	// large-range correction for the wrong hash space would inflate the
	// estimate.
	for _, n := range []int{1000, 20_000, 100_000, 1_000_000} {
		est := HLLEstimateFromRanks(hllRanks(randomHashes(n, int64(n)), b))
		if re := metrics.RE(float64(n), est); re > bound {
			t.Fatalf("HLL RE %.3f at %d keys exceeds 4σ = %.3f (est %.0f)", re, n, bound, est)
		}
	}
	if HLLEstimateFromRanks(nil) != 0 {
		t.Fatal("an empty register file estimates 0")
	}
}

// nativeHLLEstimate is HyperLogLog's estimator as Flajolet et al. (2007,
// Fig. 3) state it for a 32-bit hash and m ≥ 128 registers: the raw
// E = α_m·m²/Σ 2^{−M_j}; E* = m·ln(m/V) when E ≤ 5m/2 and V registers are
// zero; E* = −2^32·ln(1 − E/2^32) when E > 2^32/30.
func nativeHLLEstimate(regs []uint32) float64 {
	m := float64(len(regs))
	var z float64
	v := 0
	for _, r := range regs {
		z += 1 / math.Exp2(float64(r))
		if r == 0 {
			v++
		}
	}
	e := 0.7213 / (1 + 1.079/m) * m * m / z
	const two32 = 1 << 32
	switch {
	case e <= 5*m/2 && v > 0:
		return m * math.Log(m/float64(v))
	case e > two32/30:
		return -two32 * math.Log(1-e/two32)
	}
	return e
}

func TestHLLEstimateFromRanksMatchesNative(t *testing.T) {
	saturated := make([]uint32, 1<<10)
	for i := range saturated {
		saturated[i] = 18 // raw estimate ≈ 1.9e8, past 2^32/30
	}
	for _, c := range []struct {
		name string
		regs []uint32
	}{
		{"small-range", hllRanks(randomHashes(200, 5), 10)},
		{"raw", hllRanks(randomHashes(5000, 5), 10)},
		// Past 2^(32−b)/30 but under 2^32/30: no correction applies.
		{"raw-wide", hllRanks(randomHashes(100_000, 5), 14)},
		{"large-range", saturated},
	} {
		native := nativeHLLEstimate(c.regs)
		fromRanks := HLLEstimateFromRanks(c.regs)
		if math.Abs(native-fromRanks)/native > 1e-9 {
			t.Fatalf("%s: estimates diverge: native %.0f, from-ranks %.0f", c.name, native, fromRanks)
		}
	}
}

func TestLinearCountingAccuracy(t *testing.T) {
	const m = 1 << 16
	for _, n := range []int{2000, 8000, 60_000, 120_000} {
		bitmap := make([]bool, m)
		zeros := m
		for _, h := range randomHashes(n, int64(n)) {
			if !bitmap[h%m] {
				bitmap[h%m] = true
				zeros--
			}
		}
		// Whang et al.: the standard error of n̂/n is √(m(eᵗ−t−1))/n at
		// load t = n/m; allow 4σ.
		load := float64(n) / m
		bound := 4 * math.Sqrt(m*(math.Exp(load)-load-1)) / float64(n)
		if re := metrics.RE(float64(n), LinearCountingFromZeros(zeros, m)); re > bound {
			t.Fatalf("LC RE %.4f at %d keys exceeds 4σ = %.4f", re, n, bound)
		}
	}
}

func TestLinearCountingSaturated(t *testing.T) {
	est := LinearCountingFromZeros(0, 64)
	if math.IsInf(est, 1) || math.IsNaN(est) || est <= LinearCountingFromZeros(2, 64) {
		t.Fatalf("saturated LC must degrade gracefully to its largest finite reading, got %v", est)
	}
}

// --- Count Sketch / UnivMon ---

func TestCountSketchUnbiasedness(t *testing.T) {
	cs := NewCountSketch(packet.KeyFiveTuple, 3, 1<<12)
	tr := genTrace(2000, 100_000, 11)
	exact := NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		cs.AddKey(packet.KeyFiveTuple.Extract(&tr.Packets[i]), 1)
		exact.AddPacket(&tr.Packets[i])
	}
	// Signed errors should roughly cancel (unlike CMS).
	var signed float64
	n := 0
	for k, truth := range exact.Counts() {
		signed += float64(cs.EstimateKey(k)) - float64(truth)
		n++
	}
	mean := signed / float64(n)
	if math.Abs(mean) > 3 {
		t.Fatalf("CountSketch mean signed error %.2f; estimator is biased", mean)
	}
}

func TestCountSketchHeavyFlowsAccurate(t *testing.T) {
	cs := NewCountSketch(packet.KeyFiveTuple, 3, 1<<12)
	tr := genTrace(2000, 100_000, 12)
	exact := NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		cs.AddKey(packet.KeyFiveTuple.Extract(&tr.Packets[i]), 1)
		exact.AddPacket(&tr.Packets[i])
	}
	for k, truth := range exact.Counts() {
		if truth < 2000 {
			continue
		}
		est := float64(cs.EstimateKey(k))
		if metrics.RE(float64(truth), est) > 0.1 {
			t.Fatalf("heavy flow (%d) estimated %v", truth, est)
		}
	}
}

func TestUnivMonHeavyHitters(t *testing.T) {
	u := NewUnivMon(packet.KeyFiveTuple, 8, 3, 1<<12, 128)
	tr := genTrace(3000, 200_000, 13)
	exact := NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		u.AddPacket(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	const threshold = 1024
	truth := exact.HeavyHitters(threshold)
	reported := u.HeavyHitters(threshold)
	universe := map[packet.CanonicalKey]bool{}
	for k := range exact.Counts() {
		universe[k] = true
	}
	f1 := metrics.Classify(universe, truth, reported).F1()
	if f1 < 0.85 {
		t.Fatalf("UnivMon HH F1 %.3f", f1)
	}
}

func TestUnivMonEntropyAndCardinality(t *testing.T) {
	u := NewUnivMon(packet.KeyFiveTuple, 8, 3, 1<<13, 256)
	tr := genTrace(4000, 150_000, 14)
	exact := NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		u.AddPacket(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	counts := make([]uint64, 0, exact.Flows())
	for _, c := range exact.Counts() {
		counts = append(counts, c)
	}
	trueH := metrics.Entropy(counts)
	if re := metrics.RE(trueH, u.Entropy()); re > 0.25 {
		t.Fatalf("UnivMon entropy RE %.3f (true %.3f, est %.3f)", re, trueH, u.Entropy())
	}
	// The distinct-flow count is the G-sum with g ≡ 1.
	card := u.GSum(func(w float64) float64 {
		if w <= 0 {
			return 0
		}
		return 1
	})
	if card <= 0 {
		t.Fatalf("UnivMon cardinality %.0f must be positive", card)
	}
}

func TestUnivMonSamplingIsNested(t *testing.T) {
	u := NewUnivMon(packet.KeyFiveTuple, 6, 3, 256, 16)
	k := packet.KeyFiveTuple.Extract(&packet.Packet{SrcIP: 77, Proto: 6})
	// sampledAt(ℓ) true ⇒ sampledAt(ℓ′) true for all ℓ′ < ℓ.
	deepest := 0
	for l := 1; l < 6; l++ {
		if u.sampledAt(k, l) {
			if deepest != l-1 {
				t.Fatalf("sampling not nested: level %d sampled but %d not", l, deepest+1)
			}
			deepest = l
		}
	}
}

// --- BeauCoup ---

func TestCouponConfigValidate(t *testing.T) {
	good := CouponConfig{Coupons: 8, Collect: 4, ProbLog2: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []CouponConfig{
		{Coupons: 0, Collect: 1, ProbLog2: 1},
		{Coupons: 33, Collect: 1, ProbLog2: 6},
		{Coupons: 8, Collect: 9, ProbLog2: 4},
		{Coupons: 8, Collect: 0, ProbLog2: 4},
		{Coupons: 8, Collect: 4, ProbLog2: 2}, // 8 coupons at 1/4 overflows unit mass
		{Coupons: 8, Collect: 4, ProbLog2: 30},
	}
	for i, cc := range bad {
		if cc.Validate() == nil {
			t.Errorf("case %d (%+v) must fail validation", i, cc)
		}
	}
}

func TestSolveCouponConfigHitsThreshold(t *testing.T) {
	for _, width := range []int{8, 16, 32} {
		for _, threshold := range []int{10, 100, 512, 1024, 10_000} {
			cc := SolveCouponConfig(threshold, width)
			if err := cc.Validate(); err != nil {
				t.Fatalf("width %d threshold %d: invalid config: %v", width, threshold, err)
			}
			if cc.Coupons > width {
				t.Fatalf("width %d threshold %d: %d coupons do not fit a bucket", width, threshold, cc.Coupons)
			}
			e := cc.ExpectedDraws()
			if math.Abs(math.Log(e/float64(threshold))) > CouponTolerance {
				t.Fatalf("width %d threshold %d: expected draws %.1f outside ±15%%", width, threshold, e)
			}
		}
	}
}

func TestCouponDrawDistribution(t *testing.T) {
	cc := CouponConfig{Coupons: 8, Collect: 8, ProbLog2: 4}
	counts := make([]int, 9)
	const n = 1 << 16
	for i := 0; i < n; i++ {
		h := uint32(i) * 2654435761
		c := cc.Draw(h)
		if c < -1 || c >= 8 {
			t.Fatalf("draw out of range: %d", c)
		}
		counts[c+1]++
	}
	// Each coupon drawn with p = 1/16; half the draws miss.
	for i := 1; i <= 8; i++ {
		want := n / 16
		if counts[i] < want*8/10 || counts[i] > want*12/10 {
			t.Fatalf("coupon %d drawn %d times, want ≈ %d", i-1, counts[i], want)
		}
	}
	if counts[0] < n*4/10 {
		t.Fatalf("no-draw rate %d too low", counts[0])
	}
}

func TestBeauCoupDetection(t *testing.T) {
	const threshold = 256
	b := NewBeauCoup(packet.KeyDstIP, packet.KeySrcIP, SolveCouponConfig(threshold, 32), 3, 1<<12)
	tr := genTrace(2000, 40_000, 15)
	victim := packet.IPv4(8, 8, 8, 8)
	tr.InjectDDoS(victim, 4*threshold, 1, 16)
	exact := NewExactDistinct(packet.KeyDstIP, packet.KeySrcIP)
	for i := range tr.Packets {
		b.AddPacket(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	vk := packet.KeyDstIP.Extract(&packet.Packet{DstIP: victim})
	if !b.Reported()[vk] {
		t.Fatalf("victim with %d distinct sources not reported", exact.Count(vk))
	}
	// A quiet key far below threshold must not be reported.
	falseAlarms := 0
	for k, c := range exact.Counts() {
		if c < uint64(threshold)/8 && b.Reported()[k] {
			falseAlarms++
		}
	}
	if falseAlarms > len(exact.Counts())/50 {
		t.Fatalf("%d false alarms among quiet keys", falseAlarms)
	}
}

func TestBeauCoupEstimateMonotone(t *testing.T) {
	cc := CouponConfig{Coupons: 32, Collect: 32, ProbLog2: 6}
	prev := 0.0
	for j := 1; j <= 32; j++ {
		c := cc
		c.Collect = j
		e := c.ExpectedDraws()
		if e <= prev {
			t.Fatalf("expected draws not monotone at %d coupons", j)
		}
		prev = e
	}
}

func TestBeauCoupCardinalityEstimator(t *testing.T) {
	bc := NewBeauCoupCardinalityForBytes(packet.KeyFiveTuple, 16)
	tr := genTrace(5000, 10_000, 17)
	exact := NewExactCardinality(packet.KeyFiveTuple)
	for i := range tr.Packets {
		bc.AddPacket(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	re := metrics.RE(float64(exact.Cardinality()), bc.Estimate())
	if re > 0.5 {
		t.Fatalf("coupon cardinality RE %.3f with 16 bytes", re)
	}
	if mem := len(bc.rows) * 4; mem > 16 {
		t.Fatalf("memory %d exceeds budget", mem)
	}
}

// --- Exact accumulators ---

func TestExactFrequencyHelpers(t *testing.T) {
	e := NewExactFrequency(packet.KeySrcIP)
	p1 := packet.Packet{SrcIP: 1, Size: 100}
	p2 := packet.Packet{SrcIP: 2, Size: 200}
	e.AddPacket(&p1)
	e.AddPacket(&p1)
	e.Add(&p2, uint64(p2.Size))
	if e.Flows() != 2 {
		t.Fatalf("flows = %d", e.Flows())
	}
	hh := e.HeavyHitters(2)
	if len(hh) != 2 { // flow1 has 2 packets; flow2 has 200 bytes
		t.Fatalf("heavy hitters = %d", len(hh))
	}
}

func TestExactDistinct(t *testing.T) {
	e := NewExactDistinct(packet.KeyDstIP, packet.KeySrcIP)
	for i := 0; i < 10; i++ {
		e.AddPacket(&packet.Packet{DstIP: 1, SrcIP: uint32(i % 5)})
	}
	k := packet.KeyDstIP.Extract(&packet.Packet{DstIP: 1})
	if e.Count(k) != 5 {
		t.Fatalf("distinct = %d, want 5", e.Count(k))
	}
	if len(e.Over(5)) != 1 || len(e.Over(6)) != 0 {
		t.Fatal("Over threshold wrong")
	}
}

func TestExactMaxInterval(t *testing.T) {
	e := NewExactMaxInterval(packet.KeyFiveTuple)
	base := packet.Packet{SrcIP: 1, Proto: 6}
	for _, ts := range []uint64{100, 200, 500, 600} {
		p := base
		p.TimestampNs = ts
		e.AddPacket(&p)
	}
	k := packet.KeyFiveTuple.Extract(&base)
	if e.Values()[k] != 300 {
		t.Fatalf("max interval = %d, want 300", e.Values()[k])
	}
	// Single-packet flow has interval 0.
	solo := packet.Packet{SrcIP: 99, Proto: 6, TimestampNs: 42}
	e.AddPacket(&solo)
	if e.Values()[packet.KeyFiveTuple.Extract(&solo)] != 0 {
		t.Fatal("single-packet interval must be 0")
	}
}
