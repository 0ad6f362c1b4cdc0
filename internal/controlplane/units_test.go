package controlplane

import (
	"testing"

	"flymon/internal/packet"
	"flymon/internal/telemetry"
)

// churnResident is ingest_churn's long-lived task set (bench/workloads.go):
// a five-tuple CMS, a BeauCoup spread task keyed on DstIP counting SrcIPs, a
// Bloom filter and a SuMax(Max) queue-length task, 3 × 16,384 buckets each.
func churnResident() []TaskSpec {
	return []TaskSpec{
		{Name: "freq", Key: packet.KeyFiveTuple, Attribute: AttrFrequency, MemBuckets: 16384, D: 3},
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
}

// TestUnitsReturnWithTheirRules: a compression unit is free once no
// installed rule reads it. Two keyed tasks deployed and removed in turn on a
// one-group pipeline must not use up the group's three units for good — the
// third key still finds one.
func TestUnitsReturnWithTheirRules(t *testing.T) {
	c := NewController(Config{Groups: 1})
	defer c.Close()
	for _, key := range []packet.KeySpec{packet.KeySrcIP, packet.KeyDstIP} {
		task, err := c.AddTask(TaskSpec{Name: key.String(), Key: key, Attribute: AttrFrequency, MemBuckets: 2048, D: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RemoveTask(task.ID); err != nil {
			t.Fatal(err)
		}
	}
	task, err := c.AddTask(TaskSpec{Name: "pair", Key: packet.KeyIPPair, Attribute: AttrFrequency, MemBuckets: 2048, D: 1})
	if err != nil {
		t.Fatalf("a removed task's unit was never released: %v", err)
	}
	// It landed on a unit nothing read, not on the bootstrap five-tuple
	// unit, and paid for one hash-mask rule.
	if got := c.Pipeline().Group(0).UnitSpec(0); !got.Equal(packet.KeyFiveTuple) {
		t.Fatalf("unit 0 digests %s, want the bootstrap five-tuple", got)
	}
	if task.newMasks != 1 {
		t.Fatalf("the IP-pair deployment configured %d units, want 1", task.newMasks)
	}
}

// TestChurnResidentsDigestOnlyWhatRulesRead: ingest_churn's resident tasks
// read five distinct digests per packet — the five-tuple on groups 0, 2 and
// 3, DstIP and SrcIP on the spread task's group. A placement the spread task
// was rejected from must not leave units behind that the packet path then
// digests for nobody.
func TestChurnResidentsDigestOnlyWhatRulesRead(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewController(Config{Groups: 9, Buckets: 65536, BitWidth: 32, Workers: 1, ShardedState: true, Telemetry: reg})
	defer c.Close()
	for _, s := range churnResident() {
		if _, err := c.AddTask(s); err != nil {
			t.Fatal(err)
		}
	}
	const n = 1000
	ps := make([]packet.Packet, n)
	for i := range ps {
		ps[i] = packet.Packet{SrcIP: uint32(i), DstIP: uint32(i % 7), SrcPort: 9, DstPort: 80, Proto: 6}
	}
	c.ProcessBatch(ps)
	if got := reg.Report().DataPlane.Stages.Compression; got != 5*n {
		t.Errorf("%d digests for %d packets, want 5 per packet", got, n)
	}
	if keys := c.ResourceReport()[0].Keys; keys[1] != "" || keys[2] != "" {
		t.Errorf("group 0 holds units %q, only its first (the five-tuple) is read", keys)
	}
}
