// Epoch rotation: the §6 freeze-and-divert strategy as a measurement
// workflow. A rotator double-buffers a frequency task so every epoch's
// counters stay readable while the next epoch counts, and the control
// plane diffs consecutive epochs for heavy changers (Table 1).
package main

import (
	"fmt"
	"log"
	"sort"

	"flymon/internal/analysis"
	"flymon/internal/controlplane"
	"flymon/internal/epoch"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/sketch"
	"flymon/internal/trace"
)

func main() {
	ctrl := controlplane.NewController(controlplane.Config{
		Groups: 2, Buckets: 65536, BitWidth: 32, Workers: 1,
	})
	rot, err := epoch.NewRotator(ctrl, controlplane.TaskSpec{
		Name: "per-flow-size", Key: packet.KeyFiveTuple,
		Attribute: controlplane.AttrFrequency, MemBuckets: 16384, D: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rot.Close()

	// Four epochs; epoch 2 carries a surge of fresh flows (heavy changers).
	var prev map[packet.CanonicalKey]uint64
	for e := 0; e < 4; e++ {
		cfg := trace.Config{Flows: 2000, Packets: 80_000, Seed: 7} // same flows
		if e == 2 {
			cfg.Seed = 77 // a different flow population surges in
		}
		tr := trace.Generate(cfg)
		ctrl.ReplayTrace(mmtrace.FromPackets(tr.Packets))
		exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
		for i := range tr.Packets {
			exact.AddPacket(&tr.Packets[i])
		}
		frozenID, err := rot.Rotate()
		if err != nil {
			log.Fatal(err)
		}

		// Read the just-frozen epoch from its registers.
		cur := make(map[packet.CanonicalKey]uint64, exact.Flows())
		for k := range exact.Counts() {
			v, err := ctrl.EstimateKey(frozenID, k)
			if err != nil {
				log.Fatal(err)
			}
			cur[k] = uint64(v)
		}
		if prev != nil {
			changers := analysis.HeavyChangers(prev, cur, 500)
			fmt.Printf("epoch %d: %5d flows, %4d heavy changers (Δ ≥ 500 pkts) vs epoch %d\n",
				e, len(cur), len(changers), e-1)
			if len(changers) > 0 {
				// Show the largest few deltas.
				type ch struct {
					k packet.CanonicalKey
					d uint64
				}
				var top []ch
				for k := range changers {
					a, b := prev[k], cur[k]
					if a > b {
						a, b = b, a
					}
					top = append(top, ch{k, b - a})
				}
				sort.Slice(top, func(i, j int) bool { return top[i].d > top[j].d })
				for i := 0; i < 3 && i < len(top); i++ {
					fmt.Printf("   changer Δ=%d packets\n", top[i].d)
				}
			}
		} else {
			fmt.Printf("epoch %d: %5d flows (baseline)\n", e, len(cur))
		}
		prev = cur
	}
}
