package netwide

import (
	"strings"
	"testing"

	"flymon/internal/controlplane"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/sketch"
	"flymon/internal/trace"
)

// startDaemons boots n flymond-equivalent servers and returns their
// controllers (the test's ingress handles) and connected clients.
func startDaemons(t *testing.T, n int, cfg controlplane.Config) ([]*controlplane.Controller, []*rpc.Client) {
	t.Helper()
	cfgs := make([]controlplane.Config, n)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	return startDaemonsWith(t, cfgs...)
}

// startDaemonsWith boots one daemon per configuration.
func startDaemonsWith(t *testing.T, cfgs ...controlplane.Config) ([]*controlplane.Controller, []*rpc.Client) {
	t.Helper()
	n := len(cfgs)
	ctrls := make([]*controlplane.Controller, n)
	clients := make([]*rpc.Client, n)
	for i, cfg := range cfgs {
		ctrls[i] = controlplane.NewController(cfg)
		srv := rpc.NewServer(ctrls[i], nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := rpc.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	return ctrls, clients
}

func TestRemoteFleetMergedEstimates(t *testing.T) {
	cfg := fleetConfig()
	ctrls, clients := startDaemons(t, 3, cfg)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
	if err := fleet.Deploy(cmsSpec("freq")); err != nil {
		t.Fatal(err)
	}

	tr := trace.Generate(trace.Config{Flows: 1500, Packets: 45_000, Seed: 66})
	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		ctrls[i%3].Process(&tr.Packets[i]) // each packet at one ingress
		exact.AddPacket(&tr.Packets[i])
	}

	checked := 0
	for k, truth := range exact.Counts() {
		got, err := fleet.EstimateKey("freq", k)
		if err != nil {
			t.Fatal(err)
		}
		if got < truth {
			t.Fatalf("remote merged estimate %d underestimates truth %d", got, truth)
		}
		checked++
		if checked >= 40 {
			break
		}
	}
	if err := fleet.Remove("freq"); err != nil {
		t.Fatal(err)
	}
	for i, c := range ctrls {
		if len(c.Tasks()) != 0 {
			t.Fatalf("daemon %d kept tasks after fleet removal", i)
		}
	}
	_ = clients
}

// TestRemoteFleetRefusesDivergedDaemon: a deployment that a switch would lay
// out differently from the mirror is refused — on the layout fingerprint the
// switch answered with, whatever ID it assigned — and rolled back.
func TestRemoteFleetRefusesDivergedDaemon(t *testing.T) {
	cfg := fleetConfig()
	for _, tc := range []struct {
		name   string
		cfg1   controlplane.Config // daemon 1's configuration
		rogue  bool                // daemon 1 holds an out-of-band task on group 0
		spec   controlplane.TaskSpec
		refuse bool
	}{
		// The rogue sits on group 0's CMUs, so a task with overlapping traffic
		// task moves to group 1's hash units on daemon 1 only.
		{name: "displaced to another group", cfg1: cfg, rogue: true, spec: cmsSpec("freq"), refuse: true},
		// A disjoint filter shares the rogue's CMUs: same group, other base
		// and another ID than daemon 0 assigns — and the same layout.
		{name: "same group, other ID", cfg1: cfg, rogue: true, spec: func() controlplane.TaskSpec {
			s := cmsSpec("freq")
			s.Filter = packet.Filter{DstPort: 53}
			return s
		}()},
		// The "cfg must equal the daemons'" contract: a daemon with smaller
		// registers grants the whole-register task half the buckets.
		{name: "another geometry", cfg1: controlplane.Config{Groups: 3, Buckets: 32768, BitWidth: 32}, spec: func() controlplane.TaskSpec {
			s := cmsSpec("freq")
			s.MemBuckets = 65536
			return s
		}(), refuse: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrls, clients := startDaemonsWith(t, cfg, tc.cfg1)
			if tc.rogue {
				rogue := cmsSpec("rogue")
				rogue.Filter = packet.Filter{DstPort: 80}
				if _, err := ctrls[1].AddTask(rogue); err != nil {
					t.Fatal(err)
				}
			}
			fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
			err := fleet.Deploy(tc.spec)
			if !tc.refuse {
				if err != nil {
					t.Fatalf("an aligned deployment under another ID must succeed, got %v", err)
				}
				if r := fleet.tasks["freq"].remote; r[0] == r[1] {
					t.Fatalf("setup: both daemons assigned ID %d", r[0])
				}
				return
			}
			if !isCode(err, rpc.CodeLayoutDiverged) || !strings.Contains(err.Error(), "switch 1") {
				t.Fatalf("deploy onto a diverged daemon = %v, want layout diverged naming switch 1", err)
			}
			// The rollback must leave daemon 0 clean and the name free.
			if len(ctrls[0].Tasks()) != 0 {
				t.Fatal("daemon 0 kept tasks after failed fleet deploy")
			}
			if _, _, err := fleet.MergedRows("freq", MergeAdd); err == nil {
				t.Fatal("a refused deployment left a task in the table")
			}
		})
	}
}

func TestRemoteFleetLifecycleErrors(t *testing.T) {
	cfg := fleetConfig()
	_, clients := startDaemons(t, 1, cfg)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
	if _, err := fleet.EstimateKey("none", packet.CanonicalKey{}); err == nil {
		t.Fatal("unknown task must fail")
	}
	if err := fleet.Remove("none"); err == nil {
		t.Fatal("removing unknown task must fail")
	}
	if err := fleet.Deploy(cmsSpec("x")); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Deploy(cmsSpec("x")); err == nil {
		t.Fatal("duplicate deploy must fail")
	}
}
