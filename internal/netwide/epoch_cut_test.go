package netwide

import (
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
	"testing"

	"flymon/internal/controlplane"
	"flymon/internal/core/algorithms"
	"flymon/internal/faultnet"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/trace"
)

// tapListener hands out server connections that call tap after every read
// (write=false) and before every write (write=true): a hook between the
// wire and the daemon, to count requests or to hold one, or an answer.
type tapListener struct {
	net.Listener
	tap func(write bool)
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{c, l.tap}, nil
}

type tapConn struct {
	net.Conn
	tap func(write bool)
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.tap(false)
	return n, err
}

func (c *tapConn) Write(b []byte) (int, error) {
	c.tap(true)
	return c.Conn.Write(b)
}

// tappedFleet builds an in-memory fleet of one daemon per tap, each serving
// its connections through its tap.
func tappedFleet(t *testing.T, cfg controlplane.Config, opts FleetOptions, taps ...func(write bool)) (*RemoteFleet, []*controlplane.Controller) {
	t.Helper()
	ctrls := make([]*controlplane.Controller, len(taps))
	clients := make([]*rpc.Client, len(taps))
	for i, tap := range taps {
		ctrls[i] = controlplane.NewController(cfg)
		srv := rpc.NewServer(ctrls[i], nil)
		mem := faultnet.NewMemListener(fmt.Sprintf("sw%d", i))
		srv.Serve(tapListener{mem, tap})
		t.Cleanup(func() { srv.Close() })
		c, err := rpc.DialOptions(mem.Addr().String(), rpc.Options{Dialer: mem.Dial})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	return NewRemoteFleetOptions(clients, cfg, opts), ctrls
}

// TestEpochAnswerIsRotationCut: both switches keep ingesting while the
// fleet collects an epoch — switch 1 has answered, switch 0 is held, and a
// burst lands on each. A merge of live registers would count switch 0's
// burst but not switch 1's, a state the traffic never was in. The epoch
// answer is the cut the rotation drew: exactly what each switch saw before
// it; the bursts are the next epoch. The cut holds whether the rotation
// collects the epoch (switch 0's answer held: the decree itself draws the
// cut, so the bursts must land after it) or a query reads the switches'
// snapshots afterwards (read_epoch under max, an op the rotation does not
// store; switch 0 held once it has read the request and before it serves
// it, so a daemon serving live registers would count its burst).
func TestEpochAnswerIsRotationCut(t *testing.T) {
	for _, readEpoch := range []bool{false, true} {
		name := "epoch_rotate"
		if readEpoch {
			name = "read_epoch"
		}
		t.Run(name, func(t *testing.T) { rotationCut(t, readEpoch) })
	}
}

func rotationCut(t *testing.T, readEpoch bool) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	var armed atomic.Bool
	held, release := make(chan struct{}, 1), make(chan struct{})
	answered := make(chan struct{}, 1)
	signal := func(ch chan struct{}) {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	fleet, ctrls := tappedFleet(t, fleetConfig(), FleetOptions{},
		func(write bool) { // switch 0: held before it answers the decree, or before it serves the read
			if write != readEpoch && armed.Load() {
				signal(held)
				<-release
			}
		},
		func(write bool) { // switch 1: reports its answer
			if write && armed.Load() {
				signal(answered)
			}
		})
	if err := fleet.DeployEpoch(cmsSpec("freq")); err != nil {
		t.Fatal(err)
	}
	// Flow x enters at switch 1 only, flow y at switch 0 only.
	px := packet.Packet{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 1, DstPort: 80, Proto: 6, Size: 64}
	py := packet.Packet{SrcIP: 0x0A000003, DstIP: 0x0A000004, SrcPort: 2, DstPort: 80, Proto: 6, Size: 64}
	x, y := packet.KeyFiveTuple.Extract(&px), packet.KeyFiveTuple.Extract(&py)
	send := func(sw int, p *packet.Packet, n int) {
		for i := 0; i < n; i++ {
			ctrls[sw].Process(p)
		}
	}
	const x1, y1, x2, y2 = 300, 200, 50, 70
	send(1, &px, x1)
	send(0, &py, y1)
	collect := func() (EpochArtifact, error) {
		if _, err := fleet.RotateEpoch("freq"); err != nil {
			return EpochArtifact{}, err
		}
		return fleet.Epoch("freq", 1, EpochQuery{})
	}
	if readEpoch {
		if _, err := fleet.RotateEpoch("freq"); err != nil {
			t.Fatal(err)
		}
		collect = func() (EpochArtifact, error) {
			rows, report, err := fleet.QueryEpochRows("freq", 1, EpochQuery{Op: MergeMax})
			// One flow per switch: the max merge answers as the add merge.
			return EpochArtifact{Rows: rows, Report: report,
				answers: algorithms.Bind(fleet.epochTask("freq").window[1].handle, rows, 0)}, err
		}
	}

	armed.Store(true)
	type result struct {
		art EpochArtifact
		err error
	}
	done := make(chan result, 1)
	go func() {
		art, err := collect()
		done <- result{art, err}
	}()
	<-answered
	<-held
	send(1, &px, x2)
	send(0, &py, y2)
	armed.Store(false)
	close(release)
	r := <-done
	if r.err != nil || r.art.Report.Partial() || len(r.art.Report.Contributed) != 2 || r.art.Report.Cached == readEpoch {
		t.Fatalf("epoch 1: %v, report %v", r.err, r.art.Report)
	}
	for _, c := range []struct {
		name string
		art  EpochArtifact
		x, y float64
	}{{"epoch 1", r.art, x1, y1}, {"epoch 2", rotated(t, fleet, "freq"), x2, y2}} {
		gx, err := c.art.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		gy, err := c.art.Estimate(y)
		if err != nil {
			t.Fatal(err)
		}
		if gx != c.x || gy != c.y {
			t.Fatalf("%s answers x=%v y=%v; the rotation cut is x=%v y=%v", c.name, gx, gy, c.x, c.y)
		}
	}
}

// TestEpochArtifactOutlivesMirrorCopy: every typed answer of an epoch is
// served from the handle captured at its rotation, after the mirror has
// reclaimed that epoch's frozen copy, and equals the answer read while the
// copy existed — for each algorithm the fleet answers — without an RPC.
func TestEpochArtifactOutlivesMirrorCopy(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 1500, Packets: 30_000, ZipfS: 1.1, Seed: 71})
	victim := packet.IPv4(100, 64, 0, 9)
	tr.InjectDDoS(victim, 512, 1, 72)
	flows := []packet.CanonicalKey{packet.KeyFiveTuple.Extract(&packet.Packet{SrcIP: 9})} // never sent
	dsts := []packet.CanonicalKey{packet.KeyDstIP.Extract(&packet.Packet{DstIP: victim})}
	for i := 0; i < 200; i++ {
		flows = append(flows, packet.KeyFiveTuple.Extract(&tr.Packets[i*7]))
		dsts = append(dsts, packet.KeyDstIP.Extract(&tr.Packets[i*7]))
	}
	// answers renders every typed answer the artifact gives, the per-key
	// ones over both key kinds.
	keys := append(append([]packet.CanonicalKey{}, flows...), dsts...)
	answers := func(a EpochArtifact) map[string]any {
		out := map[string]any{}
		est := make([]float64, len(keys))
		var err error
		for i, k := range keys {
			if est[i], err = a.Estimate(k); err != nil {
				break
			}
		}
		if err == nil {
			out["estimate"] = est
		}
		if hh, err := a.HeavyHitters(keys, 64); err == nil {
			out["heavy hitters"] = hh
		}
		if v, err := a.Cardinality(); err == nil {
			out["cardinality"] = v
		}
		in := make([]bool, len(keys))
		for i, k := range keys {
			if in[i], err = a.Contains(k); err != nil {
				break
			}
		}
		if err == nil {
			out["contains"] = in
		}
		if rep, err := a.Reported(dsts); err == nil {
			out["reported"] = rep
		}
		return out
	}
	kinds := map[string]bool{}
	for _, spec := range parityTasks() {
		t.Run(spec.Name, func(t *testing.T) {
			var reads atomic.Int64
			count := func(write bool) {
				if !write {
					reads.Add(1)
				}
			}
			fleet, ctrls := tappedFleet(t, fleetConfig(), FleetOptions{}, count, count, count)
			if err := fleet.DeployEpoch(spec); err != nil {
				t.Fatal(err)
			}
			spread(ctrls, tr)
			first := answers(rotated(t, fleet, spec.Name))
			hh, _ := first["heavy hitters"].(map[packet.CanonicalKey]bool)
			rep, _ := first["reported"].(map[packet.CanonicalKey]bool)
			if len(first) == 0 || (hh != nil && len(hh) == 0) || (rep != nil && !rep[dsts[0]]) {
				t.Fatalf("setup: answers %v say nothing", first)
			}
			frozen := fleet.epochTask(spec.Name).rot.FrozenID()
			for e := 2; e <= 4; e++ {
				spread(ctrls, tr)
				if _, err := fleet.RotateEpoch(spec.Name); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := fleet.mirror.TaskHandle(frozen); err == nil {
				t.Fatalf("setup: the mirror still holds epoch 1's copy %d", frozen)
			}
			before := reads.Load()
			art, err := fleet.Epoch(spec.Name, 1, EpochQuery{})
			if err != nil || !art.Report.Cached {
				t.Fatalf("epoch 1 after three more rotations: %v, report %v", err, art.Report)
			}
			again := answers(art)
			if n := reads.Load() - before; n != 0 {
				t.Fatalf("stored epoch answered with %d requests on the wire", n)
			}
			if !reflect.DeepEqual(again, first) {
				t.Fatalf("answers drifted once the mirror reclaimed the copy:\n now %v\nthen %v", again, first)
			}
			for k := range first {
				kinds[k] = true
			}
		})
	}
	if len(kinds) != 5 {
		t.Fatalf("typed answers covered: %v, want all five", kinds)
	}
}
