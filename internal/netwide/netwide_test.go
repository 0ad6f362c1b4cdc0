package netwide

import (
	"testing"

	"flymon/internal/controlplane"
	"flymon/internal/metrics"
	"flymon/internal/packet"
	"flymon/internal/sketch"
	"flymon/internal/trace"
)

func fleetConfig() controlplane.Config {
	return controlplane.Config{Groups: 3, Buckets: 65536, BitWidth: 32}
}

func cmsSpec(name string) controlplane.TaskSpec {
	return controlplane.TaskSpec{
		Name: name, Key: packet.KeyFiveTuple,
		Attribute: controlplane.AttrFrequency, MemBuckets: 16384, D: 3,
	}
}

// loopbackFleet builds an in-process fleet torn down with the test.
func loopbackFleet(t *testing.T, n int, cfg controlplane.Config) (*RemoteFleet, []*controlplane.Controller) {
	t.Helper()
	fleet, switches, stop := NewLoopbackFleet(n, cfg, FleetOptions{})
	t.Cleanup(stop)
	return fleet, switches
}

// spread replays tr across the switches, each packet at one ingress.
func spread(switches []*controlplane.Controller, tr *trace.Trace) {
	for i := range tr.Packets {
		switches[i%len(switches)].Process(&tr.Packets[i])
	}
}

func TestFleetMergedCountsEqualSingleSwitch(t *testing.T) {
	// The core merge identity: a fleet's merged estimate must equal a
	// single switch observing the whole stream (same deterministic hash
	// configuration).
	fleet, switches := loopbackFleet(t, 3, fleetConfig())
	single, one := loopbackFleet(t, 1, fleetConfig())
	if err := fleet.Deploy(cmsSpec("freq")); err != nil {
		t.Fatal(err)
	}
	if err := single.Deploy(cmsSpec("freq")); err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 2000, Packets: 60_000, Seed: 60})
	spread(switches, tr)
	spread(one, tr)

	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		exact.AddPacket(&tr.Packets[i])
	}
	checked := 0
	for k, truth := range exact.Counts() {
		got, err := fleet.EstimateKey("freq", k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.EstimateKey("freq", k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("merged estimate %d != single-switch estimate %d", got, want)
		}
		if got < truth {
			t.Fatalf("merged estimate %d underestimates truth %d", got, truth)
		}
		checked++
		if checked >= 500 {
			break
		}
	}
}

func TestFleetHeavyHitters(t *testing.T) {
	fleet, switches := loopbackFleet(t, 4, fleetConfig())
	if err := fleet.Deploy(cmsSpec("hh")); err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 4000, Packets: 200_000, ZipfS: 1.3, Seed: 61})
	spread(switches, tr)

	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		exact.AddPacket(&tr.Packets[i])
	}
	const threshold = 1024
	truth := exact.HeavyHitters(threshold)
	if len(truth) == 0 {
		t.Fatal("no heavy hitters in workload")
	}
	cands := make([]packet.CanonicalKey, 0, exact.Flows())
	universe := make(map[packet.CanonicalKey]bool)
	for k := range exact.Counts() {
		cands = append(cands, k)
		universe[k] = true
	}
	reported, _, err := fleet.HeavyHitters("hh", cands, threshold)
	if err != nil {
		t.Fatal(err)
	}
	if f1 := metrics.Classify(universe, truth, reported).F1(); f1 < 0.95 {
		t.Fatalf("network-wide HH F1 = %.3f", f1)
	}
	// Per-switch views must miss hitters whose traffic is spread: check at
	// least one truth flow is NOT a hitter on switch 0 alone.
	missed := false
	for k := range truth {
		v, err := switches[0].EstimateKey(fleet.tasks["hh"].remote[0], k)
		if err != nil {
			t.Fatal(err)
		}
		if v < threshold {
			missed = true
			break
		}
	}
	if !missed {
		t.Fatal("every heavy hitter visible at one switch; workload does not exercise merging")
	}
}

func TestFleetCardinality(t *testing.T) {
	fleet, switches := loopbackFleet(t, 3, fleetConfig())
	spec := controlplane.TaskSpec{
		Name: "card", Attribute: controlplane.AttrDistinct,
		Param:      controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeyFiveTuple},
		MemBuckets: 4096,
	}
	if err := fleet.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	const flows = 30_000
	tr := trace.Generate(trace.Config{Flows: flows, Packets: flows * 2, Seed: 62})
	spread(switches, tr)
	exact := sketch.NewExactCardinality(packet.KeyFiveTuple)
	for i := range tr.Packets {
		exact.AddPacket(&tr.Packets[i])
	}
	got, report, err := fleet.Cardinality("card")
	if err != nil {
		t.Fatal(err)
	}
	if report.Partial() || len(report.Contributed) != 3 {
		t.Fatalf("cardinality report = %v", report)
	}
	if re := metrics.RE(float64(exact.Cardinality()), got); re > 0.1 {
		t.Fatalf("network-wide cardinality RE %.3f (est %.0f, truth %d)", re, got, exact.Cardinality())
	}
}

func TestFleetContains(t *testing.T) {
	fleet, switches := loopbackFleet(t, 2, fleetConfig())
	spec := controlplane.TaskSpec{
		Name: "exists", Attribute: controlplane.AttrExistence,
		Param:      controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeyFiveTuple},
		MemBuckets: 16384, D: 3,
	}
	if err := fleet.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 1000, Packets: 3000, Seed: 63})
	spread(switches, tr)
	// Every inserted key must be found network-wide even though each
	// switch saw only half the stream.
	for i := 0; i < 200; i++ {
		k := packet.KeyFiveTuple.Extract(&tr.Packets[i])
		ok, _, err := fleet.Contains("exists", k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("packet %d's flow missing from merged filter", i)
		}
	}
}

func TestFleetDDoSReported(t *testing.T) {
	fleet, switches := loopbackFleet(t, 3, fleetConfig())
	const threshold = 384
	spec := controlplane.TaskSpec{
		Name: "ddos", Key: packet.KeyDstIP, Attribute: controlplane.AttrDistinct,
		Param:     controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeySrcIP},
		Threshold: threshold, MemBuckets: 16384, D: 3,
	}
	if err := fleet.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 2000, Packets: 40_000, Seed: 64})
	victim := packet.IPv4(100, 64, 0, 1)
	tr.InjectDDoS(victim, 4*threshold, 1, 65)
	spread(switches, tr)

	exact := sketch.NewExactDistinct(packet.KeyDstIP, packet.KeySrcIP)
	for i := range tr.Packets {
		exact.AddPacket(&tr.Packets[i])
	}
	cands := make([]packet.CanonicalKey, 0)
	for k := range exact.Counts() {
		cands = append(cands, k)
	}
	reported, _, err := fleet.Reported("ddos", cands)
	if err != nil {
		t.Fatal(err)
	}
	vk := packet.KeyDstIP.Extract(&packet.Packet{DstIP: victim})
	if !reported[vk] {
		t.Fatalf("victim (attack spread over 3 ingresses) not reported network-wide")
	}
}

func TestFleetLifecycleErrors(t *testing.T) {
	fleet, _ := loopbackFleet(t, 2, fleetConfig())
	if err := fleet.Deploy(cmsSpec("x")); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Deploy(cmsSpec("x")); err == nil {
		t.Fatal("duplicate deploy must fail")
	}
	if _, err := fleet.EstimateKey("nope", packet.CanonicalKey{}); err == nil {
		t.Fatal("unknown task must fail")
	}
	if _, _, err := fleet.Cardinality("x"); err == nil {
		t.Fatal("cardinality on a counter task must fail")
	}
	if err := fleet.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Remove("x"); err == nil {
		t.Fatal("double remove must fail")
	}
}

func TestFleetDeployRollsBackOnFailure(t *testing.T) {
	// Fill switch 1 so a fleet-wide deploy fails there; switch 0 must be
	// rolled back.
	fleet, switches := loopbackFleet(t, 2, controlplane.Config{Groups: 1, Buckets: 65536, BitWidth: 32})
	full := controlplane.TaskSpec{
		Name: "hog", Key: packet.KeyFiveTuple, Attribute: controlplane.AttrFrequency,
		MemBuckets: 65536, D: 3,
	}
	if _, err := switches[1].AddTask(full); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Deploy(cmsSpec("doomed")); err == nil {
		t.Fatal("deploy must fail on the full switch")
	}
	if n := len(switches[0].Tasks()); n != 0 {
		t.Fatalf("switch 0 kept %d tasks after rollback", n)
	}
}
