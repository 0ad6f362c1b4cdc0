package main

import (
	"bytes"
	"fmt"
	"net"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/netwide"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/trace"
)

// TestQueryRendersFleetReport drives `flymonctl query` against three TCP
// daemons — one an epoch behind — plus a dead address: the CLI must render
// the library's QueryReport (contributed line, straggler row, failed row,
// exit code) and its -estimate must equal RemoteFleet.EstimateKeyEpoch on
// the same daemons.
func TestQueryRendersFleetReport(t *testing.T) {
	cfg := controlplane.Config{Groups: 3, Buckets: 65536, BitWidth: 32}
	ctrls := make([]*controlplane.Controller, 3)
	clients := make([]*rpc.Client, 3)
	addrs := make([]string, 0, 4)
	for i := range ctrls {
		ctrls[i] = controlplane.NewController(cfg)
		srv := rpc.NewServer(ctrls[i], nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if clients[i], err = rpc.Dial(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { clients[i].Close() })
		addrs = append(addrs, addr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs = append(addrs, ln.Addr().String()) // nobody listens here any more
	ln.Close()

	owner := netwide.NewRemoteFleetOptions(clients, cfg, netwide.FleetOptions{AllowPartial: true})
	spec := controlplane.TaskSpec{Name: "ep", Key: packet.KeyFiveTuple,
		Attribute: controlplane.AttrFrequency, MemBuckets: 16384, D: 3}
	if err := owner.DeployEpoch(spec); err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 200, Packets: 6_000, ZipfS: 1.1, Seed: 77})
	for round := 0; round < 2; round++ {
		for i := range tr.Packets {
			ctrls[i%3].Process(&tr.Packets[i])
		}
		if round == 1 {
			clients[2].Close() // daemon 2 misses the second rotation: a straggler at epoch 1
		}
		if _, err := owner.RotateEpoch("ep"); err != nil {
			t.Fatal(err)
		}
	}

	p := &tr.Packets[0]
	base := []string{"-addrs", strings.Join(addrs, ","), "-name", "ep", "-epoch", "2", "-wait", "50ms"}
	opts := rpc.Options{DialTimeout: time.Second}

	var out bytes.Buffer
	if code := cmdQuery(&out, "", opts, append(base, "-policy", "wait")); code != 1 {
		t.Fatalf("wait policy with a straggler and a dead switch: exit %d, want 1\n%s", code, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "epoch 2, op add, policy wait: 2/4 switches contributed") {
		t.Fatalf("missing contributed line:\n%s", got)
	}
	if n := strings.Count(got, "straggler: behind @ epoch 1"); n != 1 {
		t.Fatalf("%d straggler rows, want 1:\n%s", n, got)
	}
	if n := strings.Count(got, "failed:"); n != 1 {
		t.Fatalf("%d failed rows, want 1:\n%s", n, got)
	}

	out.Reset()
	code := cmdQuery(&out, "", opts, append(base, "-policy", "skip", "-estimate",
		"-src", packet.FormatIPv4(p.SrcIP), "-dst", packet.FormatIPv4(p.DstIP),
		"-sport", fmt.Sprint(p.SrcPort), "-dport", fmt.Sprint(p.DstPort), "-proto", fmt.Sprint(p.Proto)))
	if code != 0 {
		t.Fatalf("skip policy: exit %d\n%s", code, out.String())
	}
	m := regexp.MustCompile(`estimate for \S+ @ epoch 2: (\d+) \(2-of-4 lower bound\)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no estimate line:\n%s", out.String())
	}
	cliEst, _ := strconv.ParseUint(m[1], 10, 64)
	want, report, err := owner.EstimateKeyEpoch("ep", 2, packet.KeyFiveTuple.Extract(p), netwide.EpochQuery{Policy: netwide.StragglerSkip})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Contributed) != 2 || want == 0 || cliEst != want {
		t.Fatalf("flymonctl estimate %d, RemoteFleet.EstimateKeyEpoch %d over %v", cliEst, want, report)
	}
}
