// Adaptive memory management: a DREAM-style SDM controller (§3.4) runs on
// top of FlyMon's reconfiguration primitives. Two tenants' tasks share one
// CMU Group; when tenant A's traffic surges, the per-epoch feedback loop
// grows its task — stealing memory from the idle tenant when the group is
// full — with nothing but runtime rule installs.
package main

import (
	"fmt"
	"log"

	"flymon/internal/controlplane"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/sdm"
	"flymon/internal/trace"
)

func main() {
	ctrl := controlplane.NewController(controlplane.Config{
		Groups: 1, Buckets: 65536, BitWidth: 32, Workers: 1,
	})

	tenantA := packet.Filter{DstPort: 80}
	tenantB := packet.Filter{DstPort: 443}
	a, err := ctrl.AddTask(controlplane.TaskSpec{
		Name: "tenantA-flows", Filter: tenantA, Key: packet.KeyFiveTuple,
		Attribute: controlplane.AttrFrequency, MemBuckets: 4096, D: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	b, err := ctrl.AddTask(controlplane.TaskSpec{
		Name: "tenantB-flows", Filter: tenantB, Key: packet.KeyFiveTuple,
		Attribute: controlplane.AttrFrequency, MemBuckets: 32768, D: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	alloc := sdm.NewAllocator(ctrl, sdm.DefaultPolicy())
	if err := alloc.Manage(a.ID); err != nil {
		log.Fatal(err)
	}
	if err := alloc.Manage(b.ID); err != nil {
		log.Fatal(err)
	}

	// Five epochs: tenant A's flow count ramps up; tenant B stays light.
	flowRamp := []int{1000, 4000, 12_000, 30_000, 30_000}
	for epoch, flows := range flowRamp {
		_ = ctrl.ResetTaskCounters(a.ID)
		_ = ctrl.ResetTaskCounters(b.ID)
		trA := trace.Generate(trace.Config{Flows: flows, Packets: flows * 4, Seed: int64(epoch)})
		for i := range trA.Packets {
			trA.Packets[i].DstPort = 80
		}
		ctrl.ReplayTrace(mmtrace.FromPackets(trA.Packets))
		trB := trace.Generate(trace.Config{Flows: 500, Packets: 2000, Seed: int64(100 + epoch)})
		for i := range trB.Packets {
			trB.Packets[i].DstPort = 443
		}
		ctrl.ReplayTrace(mmtrace.FromPackets(trB.Packets))

		occA, _ := alloc.Occupancy(a.ID)
		occB, _ := alloc.Occupancy(b.ID)
		fmt.Printf("epoch %d: tenantA %5d flows, occupancy %.2f | tenantB occupancy %.2f\n",
			epoch, flows, occA, occB)
		for _, d := range alloc.EpochEnd() {
			if d.NewBuckets != d.OldBuckets {
				name := "tenantA"
				if d.TaskID == b.ID {
					name = "tenantB"
				}
				fmt.Printf("  → resized %s: %d → %d buckets\n", name, d.OldBuckets, d.NewBuckets)
			}
			if d.Err != nil {
				fmt.Printf("  → task %d resize blocked: %v\n", d.TaskID, d.Err)
			}
		}
	}

	fmt.Println("final allocations:")
	for _, t := range ctrl.Tasks() {
		fmt.Printf("  %-14s %6d buckets/row\n", t.Spec.Name, t.Buckets)
	}
}
