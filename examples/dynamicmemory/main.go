// Dynamic memory management (§3.3): multiple isolated tasks time-share one
// CMU Group through address translation, and a task's memory is grown on
// the fly when a traffic surge degrades its accuracy — the Fig. 12b
// scenario as a runnable program.
package main

import (
	"fmt"
	"log"

	"flymon/internal/controlplane"
	"flymon/internal/metrics"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/sketch"
	"flymon/internal/trace"
)

func main() {
	ctrl := controlplane.NewController(controlplane.Config{
		Groups: 1, Buckets: 65536, BitWidth: 32, Mode: controlplane.Accurate, Workers: 1,
	})

	// Two tasks with disjoint filters share the group's CMUs: each gets
	// its own power-of-two partition via address translation.
	west := packet.Filter{SrcPrefix: packet.Prefix{Value: 0, Bits: 1}}
	east := packet.Filter{SrcPrefix: packet.Prefix{Value: 0x80000000, Bits: 1}}

	taskA, err := ctrl.AddTask(controlplane.TaskSpec{
		Name: "west-flows", Filter: west, Key: packet.KeyFiveTuple,
		Attribute: controlplane.AttrFrequency, MemBuckets: 2048, D: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	taskB, err := ctrl.AddTask(controlplane.TaskSpec{
		Name: "east-bytes", Filter: east, Key: packet.KeySrcIP,
		Attribute:  controlplane.AttrFrequency,
		Param:      controlplane.ParamSpec{Kind: controlplane.ParamPacketBytes},
		MemBuckets: 2048, D: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two isolated tasks share one CMU Group:\n")
	for _, t := range ctrl.Tasks() {
		fmt.Printf("  task %d %-12s %-12s %5d buckets/row\n", t.ID, t.Spec.Name, t.Algorithm, t.Buckets)
	}

	measure := func(tr *trace.Trace, label string) {
		_ = ctrl.ResetTaskCounters(taskA.ID)
		ctrl.ReplayTrace(mmtrace.FromPackets(tr.Packets))
		exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
		for i := range tr.Packets {
			if west.Matches(&tr.Packets[i]) {
				exact.AddPacket(&tr.Packets[i])
			}
		}
		est := make(map[packet.CanonicalKey]uint64, exact.Flows())
		for k := range exact.Counts() {
			v, err := ctrl.EstimateKey(taskA.ID, k)
			if err != nil {
				log.Fatal(err)
			}
			est[k] = uint64(v)
		}
		fmt.Printf("%-28s %6d west flows, task-A ARE %.3f\n",
			label, exact.Flows(), metrics.ARE(exact.Counts(), est))
	}

	normal := trace.Generate(trace.Config{Flows: 3000, Packets: 120_000, Seed: 21})
	measure(normal, "normal load:")

	// Surge: 10× the flows. The undersized task drowns in collisions.
	surge := trace.Generate(trace.Config{Flows: 30_000, Packets: 240_000, Seed: 22})
	measure(surge, "surge, 2K buckets:")

	// On-the-fly reallocation: grow task A to 16K buckets per row.
	if _, err := ctrl.ResizeTask(taskA.ID, 16384); err != nil {
		log.Fatal(err)
	}
	fmt.Println("→ resized task A to 16384 buckets/row (runtime rules only)")
	measure(surge, "surge, 16K buckets:")

	// Task B was untouched throughout.
	if _, err := ctrl.Task(taskB.ID); err != nil {
		log.Fatal(err)
	}
	free := ctrl.FreeBuckets()
	fmt.Printf("free buckets per CMU after reallocation: %v\n", free[0])
}
