// Network-wide measurement: one task spec deployed across a fleet of
// FlyMon switches (here four in-process daemons behind the same control
// channel flymond serves, over an in-memory transport); the central
// controller merges per-switch register readouts of one epoch to answer
// queries about the whole network — heavy hitters whose traffic is spread
// over several ingresses, fleet-wide flow cardinality, and a DDoS attack no
// single switch sees enough of (§3.4's SDM use case).
package main

import (
	"fmt"
	"log"

	"flymon/internal/controlplane"
	"flymon/internal/mmtrace"
	"flymon/internal/netwide"
	"flymon/internal/packet"
	"flymon/internal/sketch"
	"flymon/internal/trace"
)

func main() {
	fleet, switches, stop := netwide.NewLoopbackFleet(4, controlplane.Config{
		Groups: 3, Buckets: 65536, BitWidth: 32, Workers: 1,
	}, netwide.FleetOptions{})
	defer stop()
	fmt.Printf("fleet: %d switches, identical configurations\n", fleet.Size())

	// Deploy three network-wide epoch tasks everywhere with one call each.
	for _, spec := range []controlplane.TaskSpec{
		{Name: "hh", Key: packet.KeyFiveTuple, Attribute: controlplane.AttrFrequency,
			Threshold: 2048, MemBuckets: 16384, D: 3},
		{Name: "card", Attribute: controlplane.AttrDistinct,
			Param:      controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeyFiveTuple},
			MemBuckets: 4096},
		{Name: "ddos", Key: packet.KeyDstIP, Attribute: controlplane.AttrDistinct,
			Param:     controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeySrcIP},
			Threshold: 512, MemBuckets: 16384, D: 3},
	} {
		if err := fleet.DeployEpoch(spec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("deployed %q fleet-wide as an epoch task\n", spec.Name)
	}

	// Traffic enters at four ingresses; a DDoS attack is spread so thinly
	// that no single switch sees enough distinct sources.
	tr := trace.Generate(trace.Config{Flows: 8000, Packets: 400_000, ZipfS: 1.3, Seed: 90})
	victim := packet.IPv4(100, 64, 9, 9)
	tr.InjectDDoS(victim, 2048, 1, 91)
	parts := make([][]packet.Packet, len(switches))
	for i := range tr.Packets {
		parts[i%len(parts)] = append(parts[i%len(parts)], tr.Packets[i])
	}
	for i, s := range switches {
		s.ReplayTrace(mmtrace.FromPackets(parts[i]))
	}

	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	card := sketch.NewExactCardinality(packet.KeyFiveTuple)
	for i := range tr.Packets {
		exact.AddPacket(&tr.Packets[i])
		card.AddPacket(&tr.Packets[i])
	}

	// End the epoch everywhere: every answer below covers exactly the
	// traffic above, read from the switches' frozen copies and merged once.
	for _, name := range []string{"hh", "card", "ddos"} {
		if _, err := fleet.RotateEpoch(name); err != nil {
			log.Fatal(err)
		}
	}
	epoch := func(name string) netwide.EpochArtifact {
		art, err := fleet.Epoch(name, 0, netwide.EpochQuery{})
		if err != nil {
			log.Fatal(err)
		}
		return art
	}

	// Fleet-wide heavy hitters: each switch saw only ~1/4 of every flow.
	cands := make([]packet.CanonicalKey, 0, exact.Flows())
	for k := range exact.Counts() {
		cands = append(cands, k)
	}
	truth := exact.HeavyHitters(2048)
	reported, err := epoch("hh").HeavyHitters(cands, 2048)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heavy hitters ≥2048 pkts: truth %d, network-wide reported %d\n",
		len(truth), len(reported))

	got, err := epoch("card").Cardinality()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet-wide cardinality: est %.0f, truth %d\n", got, card.Cardinality())

	ddos, err := epoch("ddos").Reported(cands2(tr))
	if err != nil {
		log.Fatal(err)
	}
	vk := packet.KeyDstIP.Extract(&packet.Packet{DstIP: victim})
	fmt.Printf("DDoS victim %s reported network-wide: %v (attack split 4 ways: ~512 sources/switch)\n",
		packet.FormatIPv4(victim), ddos[vk])
}

// cands2 extracts the distinct DstIP keys of a trace.
func cands2(tr *trace.Trace) []packet.CanonicalKey {
	seen := map[packet.CanonicalKey]bool{}
	out := make([]packet.CanonicalKey, 0)
	for i := range tr.Packets {
		k := packet.KeyDstIP.Extract(&tr.Packets[i])
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}
