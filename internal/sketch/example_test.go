package sketch_test

import (
	"fmt"
	"math"

	"flymon/internal/packet"
	"flymon/internal/sketch"
)

// Count per-flow packets with a Count-Min Sketch.
func ExampleCMS() {
	cms := sketch.NewCMS(packet.KeyFiveTuple, 3, 1024)
	p := packet.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	for i := 0; i < 5; i++ {
		cms.AddPacket(&p)
	}
	fmt.Println(cms.EstimateKey(packet.KeyFiveTuple.Extract(&p)))
	// Output: 5
}

// Solve BeauCoup coupon configurations for a distinct-count threshold of
// 512 on 32-bit and on 8-bit register buckets: each fits its bucket and
// expects to report within the solver's ±15% of the threshold.
func ExampleSolveCouponConfig() {
	for _, width := range []int{32, 8} {
		cfg := sketch.SolveCouponConfig(512, width)
		e := cfg.ExpectedDraws()
		fmt.Println(cfg.Coupons <= width, math.Abs(math.Log(e/512)) <= sketch.CouponTolerance)
	}
	// Output:
	// true true
	// true true
}
