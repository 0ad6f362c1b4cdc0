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

// parityTasks is one task per typed answer's algorithm.
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
		if err := loop.DeployEpoch(spec); err != nil {
			t.Fatal(err)
		}
		if err := tcp.DeployEpoch(spec); err != nil {
			t.Fatal(err)
		}
	}
	tr := trace.Generate(trace.Config{Flows: 1500, Packets: 30_000, ZipfS: 1.1, Seed: 67})
	victim := packet.IPv4(100, 64, 0, 7)
	tr.InjectDDoS(victim, 512, 1, 68)
	spread(loopSw, tr)
	spread(tcpSw, tr)
	la, lb := map[string]EpochArtifact{}, map[string]EpochArtifact{}
	for _, spec := range parityTasks() {
		la[spec.Name], lb[spec.Name] = rotated(t, loop, spec.Name), rotated(t, tcp, spec.Name)
	}

	for _, op := range allMergeOps {
		a, ra, err := loop.QueryEpochRows("freq", 1, EpochQuery{Op: op})
		if err != nil {
			t.Fatal(err)
		}
		b, rb, err := tcp.QueryEpochRows("freq", 1, EpochQuery{Op: op})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ra, rb) {
			t.Fatalf("op %s: loopback and TCP merges differ (reports %v vs %v)", op, ra, rb)
		}
	}
	ca, err := la["card"].Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	if cb, err := lb["card"].Cardinality(); err != nil || ca != cb || ca == 0 {
		t.Fatalf("cardinality: loopback %v, TCP %v (%v)", ca, cb, err)
	}
	for i := 0; i < 20; i++ {
		k := packet.KeyFiveTuple.Extract(&tr.Packets[i*13])
		a, err := la["exists"].Contains(k)
		if err != nil {
			t.Fatal(err)
		}
		if b, err := lb["exists"].Contains(k); err != nil || a != b || !a {
			t.Fatalf("contains(packet %d): loopback %v, TCP %v (%v)", i*13, a, b, err)
		}
	}
	cands := []packet.CanonicalKey{packet.KeyDstIP.Extract(&packet.Packet{DstIP: victim})}
	for i := 0; i < 200; i++ {
		cands = append(cands, packet.KeyDstIP.Extract(&tr.Packets[i]))
	}
	ra, err := la["ddos"].Reported(cands)
	if err != nil {
		t.Fatal(err)
	}
	if rb, err := lb["ddos"].Reported(cands); err != nil || !reflect.DeepEqual(ra, rb) || !ra[cands[0]] {
		t.Fatalf("reported: loopback %v, TCP %v (%v)", ra, rb, err)
	}
}

func TestLoopbackTransportTakesFaultPlan(t *testing.T) {
	// The in-memory listener wraps like a TCP one: a fleet assembled by
	// hand with switch 1 behind a faultnet Gate reports that switch as
	// failed once the gate partitions, and merges the rest. The gate first
	// drops only switch 1's answers: it rotates, but its rows never arrive,
	// so the rotation stores nothing and the query reads the switches.
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
	if err := fleet.DeployEpoch(cmsSpec("freq")); err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 300, Packets: 6_000, Seed: 69})
	spread(ctrls, tr)
	gate.SetDropWrites(true)
	if _, err := fleet.RotateEpoch("freq"); err != nil {
		t.Fatal(err)
	}
	k := packet.KeyFiveTuple.Extract(&tr.Packets[0])
	gate.Partition()
	part, report, err := fleet.EstimateKeyEpoch("freq", 1, k, EpochQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if _, failed := report.Failed[1]; !failed || len(report.Failed) != 1 || !reflect.DeepEqual(report.Contributed, []int{0, 2}) {
		t.Fatalf("partitioned switch 1 must be the one failure: %v", report)
	}
	// The partial answer was not kept: once healed, the same epoch is
	// asked of the whole fleet again.
	gate.Heal()
	full, report, err := fleet.EstimateKeyEpoch("freq", 1, k, EpochQuery{})
	if err != nil || report.Partial() || report.Cached {
		t.Fatalf("healed query: %v, report %v", err, report)
	}
	if part > full {
		t.Fatalf("2-of-3 estimate %d exceeds the full one %d", part, full)
	}
}
