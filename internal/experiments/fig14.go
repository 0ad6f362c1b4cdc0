package experiments

import (
	"fmt"
	"math"

	"flymon/internal/analysis"
	"flymon/internal/core"
	"flymon/internal/core/algorithms"
	"flymon/internal/metrics"
	"flymon/internal/packet"
	"flymon/internal/sketch"
	"flymon/internal/trace"
)

var keyTimestamp = packet.NewKeySpec(packet.FieldTimestamp)

// memSweepKB returns the memory sweep (KB) for a scale.
func memSweepKB(scale Scale) []int {
	if scale == Full {
		return []int{10, 50, 100, 500, 1000}
	}
	return []int{5, 10, 20, 50, 100}
}

// bucketsFor converts a per-algorithm memory budget into buckets per row
// for 32-bit registers.
func bucketsFor(memBytes, d int) int {
	b := memBytes / (d * 4)
	if b < 4 {
		b = 4
	}
	return b
}

// Fig14a reproduces Figure 14a: heavy-hitter F1 vs memory for
// FlyMon-BeauCoup/CMS/SuMax, UnivMon, and original BeauCoup (d=1, d=3).
func Fig14a(scale Scale, seed int64) *Table {
	tr := baseTrace(scale, seed)
	threshold := scale.heavyThreshold()

	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		exact.AddPacket(&tr.Packets[i])
	}
	truth := exact.HeavyHitters(uint64(threshold))
	candidates, universe := flowUniverse(exact.Counts())

	score := func(reported map[packet.CanonicalKey]bool) string {
		return f3(metrics.Classify(universe, truth, reported).F1())
	}

	t := &Table{
		Title: fmt.Sprintf("Fig. 14a — Heavy-hitter detection F1 vs memory (threshold %d)", threshold),
		Header: []string{"Mem (KB)", "FlyMon-BeauCoup(d=3)", "FlyMon-CMS(d=3)", "FlyMon-SuMax(d=3)",
			"UnivMon", "BeauCoup(d=1)", "BeauCoup(d=3)"},
	}
	for _, kb := range memSweepKB(scale) {
		mem := kb * 1024
		row := []string{itoa(kb)}

		// FlyMon-BeauCoup (d=3): heavy hitters as distinct-timestamp
		// counting (every packet's µs timestamp is distinct within a flow).
		{
			g := groups32(1, bucketsFor(mem, 3))[0]
			task, err := algorithms.InstallBeauCoup(g, 1, packet.MatchAll,
				packet.KeyFiveTuple, keyTimestamp, threshold, 3, nil)
			if err != nil {
				panic(err)
			}
			pl := core.NewPipelineWith(g)
			replay(pl, tr)
			row = append(row, score(task.Reported(candidates)))
		}
		// FlyMon-CMS (d=3).
		{
			g := groups32(1, bucketsFor(mem, 3))[0]
			task, err := algorithms.InstallCMS(g, 1, packet.MatchAll,
				packet.KeyFiveTuple, core.Const(1), 3, nil)
			if err != nil {
				panic(err)
			}
			pl := core.NewPipelineWith(g)
			replay(pl, tr)
			row = append(row, score(task.HeavyHitters(candidates, uint32(threshold))))
		}
		// FlyMon-SuMax(Sum) (d=3, three groups).
		{
			gs := groups32(3, bucketsFor(mem, 3))
			task, err := algorithms.InstallSuMaxSum(gs, 1, packet.MatchAll,
				packet.KeyFiveTuple, core.Const(1), nil)
			if err != nil {
				panic(err)
			}
			pl := core.NewPipelineWith(gs...)
			replay(pl, tr)
			row = append(row, score(task.HeavyHitters(candidates, uint32(threshold))))
		}
		// UnivMon.
		{
			u := sketch.NewUnivMonForBytes(packet.KeyFiveTuple, mem)
			for i := range tr.Packets {
				u.AddPacket(&tr.Packets[i])
			}
			row = append(row, score(u.HeavyHitters(uint64(threshold))))
		}
		// Original BeauCoup d=1 and d=3.
		for _, d := range []int{1, 3} {
			b := sketch.NewBeauCoupForBytes(packet.KeyFiveTuple, keyTimestamp, threshold, d, mem)
			for i := range tr.Packets {
				b.AddPacket(&tr.Packets[i])
			}
			row = append(row, score(b.Reported()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"counter-based algorithms reach F1≈1 around 100 KB; FlyMon-SuMax is the most memory-efficient; coupon-based algorithms trail (matches paper)")
	return t
}

// Fig14b reproduces Figure 14b: heavy-hitter F1 under probabilistic
// execution (p = 1, 0.5, 0.25, 0.125) — the sampling workaround for task
// intersection on one CMU.
func Fig14b(scale Scale, seed int64) *Table {
	tr := baseTrace(scale, seed)
	threshold := scale.heavyThreshold()
	probs := []float64{1.0, 0.5, 0.25, 0.125}

	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		exact.AddPacket(&tr.Packets[i])
	}
	truth := exact.HeavyHitters(uint64(threshold))
	candidates, universe := flowUniverse(exact.Counts())

	t := &Table{
		Title:  fmt.Sprintf("Fig. 14b — Heavy-hitter F1 under probabilistic execution (threshold %d)", threshold),
		Header: []string{"Mem (KB)", "p=1.0", "p=0.5", "p=0.25", "p=0.125"},
	}
	var kbs []int
	if scale == Full {
		kbs = []int{40, 80, 120, 160, 200}
	} else {
		kbs = []int{10, 20, 40, 80}
	}
	for _, kb := range kbs {
		mem := kb * 1024
		row := []string{itoa(kb)}
		for _, p := range probs {
			g := groups32(1, bucketsFor(mem, 3))[0]
			task, err := algorithms.InstallCMS(g, 1, packet.MatchAll,
				packet.KeyFiveTuple, core.Const(1), 3, nil)
			if err != nil {
				panic(err)
			}
			pl := core.NewPipelineWith(g)
			for _, loc := range pl.Locate(1) {
				loc.Rule.Prob = p
			}
			replay(pl, tr)
			// Sampling scales counts by p: threshold scales with it.
			scaled := uint32(float64(threshold) * p)
			if scaled < 1 {
				scaled = 1
			}
			reported := task.HeavyHitters(candidates, scaled)
			row = append(row, f3(metrics.Classify(universe, truth, reported).F1()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "sampling has little effect on heavy hitters: their counts dominate the scaled threshold")
	return t
}

// Fig14c reproduces Figure 14c: DDoS-victim detection F1 vs memory for
// FlyMon-BeauCoup and original BeauCoup at d=1 and d=3.
func Fig14c(scale Scale, seed int64) *Table {
	flows, packets := scale.workload()
	tr := trace.Generate(trace.Config{Flows: flows, Packets: packets, Seed: seed})
	threshold := 512
	if scale == Small {
		threshold = 128
	}
	// Victims well above and below the threshold (×¼ … ×4, geometric)
	// make classification meaningful without being dominated by the coupon
	// collector's variance at the boundary.
	for v := 0; v < 24; v++ {
		factor := 0.25 * math.Pow(4/0.25, float64(v)/23)
		attackers := int(float64(threshold) * factor)
		tr.InjectDDoS(packet.IPv4(203, 0, 113, byte(v)), attackers, 2, seed+int64(v))
	}

	exact := sketch.NewExactDistinct(packet.KeyDstIP, packet.KeySrcIP)
	for i := range tr.Packets {
		exact.AddPacket(&tr.Packets[i])
	}
	truth := exact.Over(threshold)
	candidates, universe := flowUniverse(exact.Counts())

	t := &Table{
		Title: fmt.Sprintf("Fig. 14c — DDoS-victim detection F1 vs memory (threshold %d distinct SrcIPs)", threshold),
		Header: []string{"Mem (KB)", "FlyMon-BeauCoup(d=1)", "FlyMon-BeauCoup(d=3)",
			"BeauCoup(d=1)", "BeauCoup(d=3)"},
	}
	for _, kb := range memSweepKB(scale) {
		mem := kb * 1024
		row := []string{itoa(kb)}
		for _, d := range []int{1, 3} {
			g := groups32(1, bucketsFor(mem, d))[0]
			task, err := algorithms.InstallBeauCoup(g, 1, packet.MatchAll,
				packet.KeyDstIP, packet.KeySrcIP, threshold, d, nil)
			if err != nil {
				panic(err)
			}
			pl := core.NewPipelineWith(g)
			replay(pl, tr)
			row = append(row, f3(metrics.Classify(universe, truth, task.Reported(candidates)).F1()))
		}
		for _, d := range []int{1, 3} {
			b := sketch.NewBeauCoupForBytes(packet.KeyDstIP, packet.KeySrcIP, threshold, d, mem)
			for i := range tr.Packets {
				b.AddPacket(&tr.Packets[i])
			}
			row = append(row, f3(metrics.Classify(universe, truth, b.Reported()).F1()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"FlyMon-BeauCoup's CMS-style multi-table collision hardening overtakes the original once memory passes ~100 KB (paper's finding)")
	return t
}

// Fig14d reproduces Figure 14d: flow-cardinality relative error vs memory
// for BeauCoup's coupon estimator and FlyMon-HLL.
func Fig14d(scale Scale, seed int64) *Table {
	tr := baseTrace(scale, seed)
	exact := sketch.NewExactCardinality(packet.KeyFiveTuple)
	for i := range tr.Packets {
		exact.AddPacket(&tr.Packets[i])
	}
	truth := float64(exact.Cardinality())

	t := &Table{
		Title:  fmt.Sprintf("Fig. 14d — Flow-cardinality RE vs memory (true cardinality %d)", exact.Cardinality()),
		Header: []string{"Mem (bytes)", "BeauCoup RE", "FlyMon-HLL RE"},
	}
	for _, mem := range []int{16, 64, 256, 1024, 8192} {
		row := []string{itoa(mem)}
		// BeauCoup multi-resolution coupon bank.
		{
			b := sketch.NewBeauCoupCardinalityForBytes(packet.KeyFiveTuple, mem)
			for i := range tr.Packets {
				b.AddPacket(&tr.Packets[i])
			}
			row = append(row, f3(metrics.RE(truth, b.Estimate())))
		}
		// FlyMon-HLL on a CMU (32-bit buckets: 4 bytes per register).
		{
			buckets := mem / 4
			if buckets < 4 {
				buckets = 4
			}
			g := groups32(1, buckets)[0]
			task, err := algorithms.InstallHLL(g, 1, packet.MatchAll, packet.KeyFiveTuple, core.MemRange{})
			if err != nil {
				panic(err)
			}
			pl := core.NewPipelineWith(g)
			replay(pl, tr)
			est, err := task.Estimate()
			if err != nil {
				panic(err)
			}
			row = append(row, f3(metrics.RE(truth, est)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"BeauCoup reaches RE<0.2 with tens of bytes; HLL needs KBs but then wins on precision (paper's crossover)")
	return t
}

// Fig14e reproduces Figure 14e: flow-entropy relative error vs memory for
// UnivMon and FlyMon-MRAC (+EM).
func Fig14e(scale Scale, seed int64) *Table {
	tr := baseTrace(scale, seed)
	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		exact.AddPacket(&tr.Packets[i])
	}
	counts := make([]uint64, 0, exact.Flows())
	for _, c := range exact.Counts() {
		counts = append(counts, c)
	}
	truth := metrics.Entropy(counts)

	var kbs []int
	if scale == Full {
		kbs = []int{200, 300, 400, 500}
	} else {
		kbs = []int{20, 50, 100, 200}
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig. 14e — Flow-entropy RE vs memory (true entropy %.3f bits)", truth),
		Header: []string{"Mem (KB)", "UnivMon RE", "FlyMon-MRAC RE"},
	}
	for _, kb := range kbs {
		mem := kb * 1024
		row := []string{itoa(kb)}
		{
			u := sketch.NewUnivMonForBytes(packet.KeyFiveTuple, mem)
			for i := range tr.Packets {
				u.AddPacket(&tr.Packets[i])
			}
			row = append(row, f3(metrics.RE(truth, u.Entropy())))
		}
		{
			g := groups32(1, bucketsFor(mem, 1))[0]
			task, err := algorithms.InstallMRAC(g, 1, packet.MatchAll, packet.KeyFiveTuple, nil)
			if err != nil {
				panic(err)
			}
			pl := core.NewPipelineWith(g)
			replay(pl, tr)
			counters, err := task.Counters()
			if err != nil {
				panic(err)
			}
			dist := analysis.MRACDistribution(counters, 2048, 8)
			row = append(row, f3(metrics.RE(truth, metrics.EntropyFromDistribution(dist))))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "MRAC's EM inversion reaches low RE with less memory than UnivMon (paper: 200 KB vs 340 KB)")
	return t
}

// Fig14f reproduces Figure 14f: maximum inter-arrival-time ARE vs memory
// for d=2 and d=3 ensembles of the three-CMU combinatorial task.
func Fig14f(scale Scale, seed int64) *Table {
	flows, packets := scale.workload()
	tr := trace.Generate(trace.Config{Flows: flows, Packets: packets, Seed: seed})
	exact := sketch.NewExactMaxInterval(packet.KeyFiveTuple)
	for i := range tr.Packets {
		exact.AddPacket(&tr.Packets[i])
	}

	var memsMB []float64
	if scale == Full {
		memsMB = []float64{4, 6, 8, 10}
	} else {
		memsMB = []float64{0.1, 0.25, 0.5, 1}
	}
	t := &Table{
		Title:  "Fig. 14f — Max inter-arrival time ARE vs memory",
		Header: []string{"Mem (MB)", "d=2 ARE", "d=3 ARE"},
	}
	for _, mb := range memsMB {
		mem := int(mb * 1024 * 1024)
		row := []string{f2(mb)}
		for _, d := range []int{2, 3} {
			buckets := mem / (d * 3 * 4)
			gs := groups32(3*d, buckets)
			ens, err := algorithms.InstallMaxIntervalEnsemble(gs, 1, packet.MatchAll, packet.KeyFiveTuple, d)
			if err != nil {
				panic(err)
			}
			pl := core.NewPipelineWith(gs...)
			replay(pl, tr)
			var areSum float64
			n := 0
			for k, truth := range exact.Values() {
				if truth == 0 {
					continue
				}
				est := uint64(ens.EstimateKey(k)) * 1000 // µs → ns
				areSum += metrics.RE(float64(truth), float64(est))
				n++
			}
			if n == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, f3(areSum/float64(n)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "taking the minimum across d instances trims collision-inflated intervals; d=3 dominates d=2")
	return t
}

// Fig14g reproduces Figure 14g: existence-check false-positive rate vs
// memory, with and without the bucket-bit-packing optimization.
func Fig14g(scale Scale, seed int64) *Table {
	inserted, probes := 20_000, 95_000
	if scale == Small {
		inserted, probes = 4_000, 20_000
	}
	insTrace := trace.Generate(trace.Config{Flows: inserted, Packets: inserted * 2, Seed: seed})
	probeTrace := trace.Generate(trace.Config{Flows: probes, Packets: probes, Seed: seed + 7})

	member := sketch.NewExactMembership(packet.KeyFiveTuple)
	for i := range insTrace.Packets {
		member.Insert(&insTrace.Packets[i])
	}

	t := &Table{
		Title:  fmt.Sprintf("Fig. 14g — Existence-check false positives vs memory (%d inserted keys)", member.Size()),
		Header: []string{"Mem (KB)", "FP w/o opt", "FP w/ opt"},
	}
	for _, kb := range []int{2, 4, 6, 8, 10, 20, 40} {
		mem := kb * 1024
		row := []string{itoa(kb)}
		for _, packed := range []bool{false, true} {
			g := groups32(1, bucketsFor(mem, 3))[0]
			task, err := algorithms.InstallBloom(g, 1, packet.MatchAll, packet.KeyFiveTuple, 3, packed, nil)
			if err != nil {
				panic(err)
			}
			pl := core.NewPipelineWith(g)
			replay(pl, insTrace)
			fp, neg := 0, 0
			for i := range probeTrace.Packets {
				p := &probeTrace.Packets[i]
				if member.Contains(p) {
					continue
				}
				neg++
				if task.ContainsKey(packet.KeyFiveTuple.Extract(p)) {
					fp++
				}
			}
			row = append(row, f4(float64(fp)/float64(neg)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"bit packing multiplies usable membership bits by the bucket width (32×), collapsing the FP rate (paper: <0.1% at 40 KB)")
	return t
}
