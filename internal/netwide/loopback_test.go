package netwide

import (
	"reflect"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/faultnet"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/trace"
)

// parityTasks is one task per merge algebra the typed queries use.
func parityTasks() []controlplane.TaskSpec {
	five := controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeyFiveTuple}
	return []controlplane.TaskSpec{
		cmsSpec("freq"),
		{Name: "card", Attribute: controlplane.AttrDistinct, Param: five, MemBuckets: 4096},
		{Name: "exists", Attribute: controlplane.AttrExistence, Param: five, MemBuckets: 16384, D: 3},
		{Name: "ddos", Key: packet.KeyDstIP, Attribute: controlplane.AttrDistinct,
			Param:     controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeySrcIP},
			Threshold: 128, MemBuckets: 16384, D: 3},
	}
}

func TestLoopbackFleetMatchesTCPFleet(t *testing.T) {
	// One fleet, two transports: the same trace through in-memory pipes and
	// through TCP daemons must give bit-identical merges and the same typed
	// answers.
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	cfg.Groups = 4 // four whole-traffic tasks, one CMU group each
	loop, loopSw := loopbackFleet(t, 3, cfg)
	tcpSw, clients := startDaemons(t, 3, cfg)
	tcp := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
	for _, spec := range parityTasks() {
		if err := loop.Deploy(spec); err != nil {
			t.Fatal(err)
		}
		if err := tcp.Deploy(spec); err != nil {
			t.Fatal(err)
		}
	}
	tr := trace.Generate(trace.Config{Flows: 1500, Packets: 30_000, ZipfS: 1.1, Seed: 67})
	victim := packet.IPv4(100, 64, 0, 7)
	tr.InjectDDoS(victim, 512, 1, 68)
	spread(loopSw, tr)
	spread(tcpSw, tr)

	for _, op := range allMergeOps {
		a, ra, err := loop.MergedRows("freq", op)
		if err != nil {
			t.Fatal(err)
		}
		b, rb, err := tcp.MergedRows("freq", op)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ra, rb) {
			t.Fatalf("op %s: loopback and TCP merges differ (reports %v vs %v)", op, ra, rb)
		}
	}
	la, _, err := loop.Cardinality("card")
	if err != nil {
		t.Fatal(err)
	}
	if tb, _, err := tcp.Cardinality("card"); err != nil || la != tb || la == 0 {
		t.Fatalf("cardinality: loopback %v, TCP %v (%v)", la, tb, err)
	}
	for i := 0; i < 20; i++ {
		k := packet.KeyFiveTuple.Extract(&tr.Packets[i*13])
		a, _, err := loop.Contains("exists", k)
		if err != nil {
			t.Fatal(err)
		}
		if b, _, err := tcp.Contains("exists", k); err != nil || a != b || !a {
			t.Fatalf("contains(packet %d): loopback %v, TCP %v (%v)", i*13, a, b, err)
		}
	}
	cands := []packet.CanonicalKey{packet.KeyDstIP.Extract(&packet.Packet{DstIP: victim})}
	for i := 0; i < 200; i++ {
		cands = append(cands, packet.KeyDstIP.Extract(&tr.Packets[i]))
	}
	ra, _, err := loop.Reported("ddos", cands)
	if err != nil {
		t.Fatal(err)
	}
	if rb, _, err := tcp.Reported("ddos", cands); err != nil || !reflect.DeepEqual(ra, rb) || !ra[cands[0]] {
		t.Fatalf("reported: loopback %v, TCP %v (%v)", ra, rb, err)
	}
}

func TestLoopbackTransportTakesFaultPlan(t *testing.T) {
	// The in-memory listener wraps like a TCP one: a fleet assembled by
	// hand with switch 1 behind a faultnet Gate reports that switch as
	// failed once the gate partitions, and merges the rest.
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	var gate faultnet.Gate
	ctrls := make([]*controlplane.Controller, 3)
	clients := make([]*rpc.Client, 3)
	for i := range ctrls {
		ctrls[i] = controlplane.NewController(cfg)
		srv := rpc.NewServer(ctrls[i], nil)
		mem := faultnet.NewMemListener("sw")
		if i == 1 {
			srv.Serve(faultnet.WrapListener(mem, faultnet.Plan{Gate: &gate}))
		} else {
			srv.Serve(mem)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := rpc.DialOptions(mem.Addr().String(), rpc.Options{
			Dialer: mem.Dial, CallTimeout: 200 * time.Millisecond, MaxRetries: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{AllowPartial: true})
	if err := fleet.Deploy(cmsSpec("freq")); err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 300, Packets: 6_000, Seed: 69})
	spread(ctrls, tr)
	k := packet.KeyFiveTuple.Extract(&tr.Packets[0])
	full, report, err := fleet.EstimateKeyPartial("freq", k)
	if err != nil || report.Partial() {
		t.Fatalf("healthy query: %v, report %v", err, report)
	}
	gate.Partition()
	part, report, err := fleet.EstimateKeyPartial("freq", k)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed := report.Failed[1]; !failed || len(report.Failed) != 1 || !reflect.DeepEqual(report.Contributed, []int{0, 2}) {
		t.Fatalf("partitioned switch 1 must be the one failure: %v", report)
	}
	if part > full {
		t.Fatalf("2-of-3 estimate %d exceeds the full one %d", part, full)
	}
	gate.Heal()
}
