package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"flymon/internal/controlplane"
	"flymon/internal/mmtrace"
	"flymon/internal/netwide"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/trace"
)

// env is one set-up of a workload: the trace files, the system under test
// and the ground truth its answers are checked against.
type env struct {
	w   *workload
	h   *harness
	rng *rand.Rand // churn schedule and query-key sampling

	traces []*mmtrace.Trace

	// Single-controller ingest workloads.
	ctrl     *controlplane.Controller
	expect   map[int]string // task ID -> name the controller must list
	cmsID    int            // the long-lived five-tuple CMS
	replayed uint64         // frames pushed through ctrl since deployment
	slots    [4]int         // task ID per churn slot, 0 = empty

	// Fleet workloads.
	daemons []daemon
	fleet   *netwide.RemoteFleet
	keys    []queryKey // fixed per seed; every cycle queries them in this order
	nEpoch  uint64     // packets in one epoch, fleet-wide
	rpcErrs int        // errors returned by fleet/rpc calls the harness made
}

type daemon struct {
	ctrl   *controlplane.Controller
	srv    *rpc.Server
	client *rpc.Client
}

type queryKey struct {
	key   packet.CanonicalKey
	truth uint64 // exact packets of this flow in one epoch
}

// setUp builds the workload from nothing and returns it with its set-up
// time at reference machine speed (seconds). Every step is probe-bracketed
// and, in a traced run, a span.
func setUp(h *harness, w *workload, seed int64, dir string) (*env, float64, error) {
	e := &env{w: w, h: h, rng: rand.New(rand.NewSource(seed))}
	var normNs float64
	step := func(name string, fn func() error) error {
		var err error
		tm := h.timed(func() {
			id := h.begin(name, -1, -1)
			err = fn()
			h.end(id)
		})
		normNs += tm.norm()
		if err != nil {
			return fmt.Errorf("set-up: %s: %w", name, err)
		}
		return nil
	}

	var tr *trace.Trace
	paths := make([]string, w.files)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"trace.Generate", func() error {
			tr = trace.Generate(trace.Config{Flows: w.flows, Packets: w.files * w.frames, ZipfS: 1.1, Seed: seed})
			return nil
		}},
		{"trace.Write", func() error {
			for i := range paths {
				paths[i] = filepath.Join(dir, fmt.Sprintf("trace%d.fmt", i))
				if err := writeTrace(paths[i], tr.Packets[i*w.frames:(i+1)*w.frames]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"mmtrace.Open", func() error {
			for _, p := range paths {
				t, err := mmtrace.Open(p)
				if err != nil {
					return err
				}
				e.traces = append(e.traces, t)
			}
			return nil
		}},
		{"harness.truth", func() error {
			if w.daemons > 0 {
				e.sampleKeys(tr.Packets)
			}
			tr = nil // the system only ever sees the files
			return nil
		}},
		{"controlplane.deploy", e.deploy},
		{"harness.verify", e.verifyEngines},
	}
	for _, s := range steps {
		if err := step(s.name, s.fn); err != nil {
			e.close()
			return nil, 0, err
		}
		// Collect what the step dropped (the generated packets, the
		// reference controllers) outside the clock: peak RSS then follows
		// what is live, not where a background GC cycle happened to start.
		runtime.GC()
		h.stale()
	}
	// Warm-up: two rounds, timed by their own probe brackets like any
	// other round, so pools, connections and lazy state are paid for here
	// and show in setup_s, not in the discarded head of the timed phase.
	var res result
	for r := -2; r < 0; r++ {
		e.round(r, &res)
	}
	if len(res.failures) > 0 {
		e.close()
		return nil, 0, fmt.Errorf("set-up: warm-up: %s", res.failures[0])
	}
	return e, (normNs + res.busyNs) / 1e9, nil
}

func writeTrace(path string, ps []packet.Packet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := trace.NewWriter(f)
	for i := 0; err == nil && i < len(ps); i++ {
		err = w.WritePacket(&ps[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sampleKeys computes the exact per-flow packet counts of one epoch (every
// file is ingested exactly once per cycle) and fixes the query keys: half
// drawn from the 100 heaviest flows, half uniformly from all flows.
func (e *env) sampleKeys(ps []packet.Packet) {
	counts := make(map[packet.CanonicalKey]uint64)
	for i := range ps {
		counts[packet.KeyFiveTuple.Extract(&ps[i])]++
	}
	e.nEpoch = uint64(len(ps))
	flows := make([]packet.CanonicalKey, 0, len(counts))
	for k := range counts {
		flows = append(flows, k)
	}
	sort.Slice(flows, func(i, j int) bool {
		if ci, cj := counts[flows[i]], counts[flows[j]]; ci != cj {
			return ci > cj
		}
		return bytes.Compare(flows[i][:], flows[j][:]) < 0
	})
	top := flows
	if len(top) > 100 {
		top = top[:100]
	}
	for i := 0; i < e.w.queries; i++ {
		from := flows
		if i%2 == 0 {
			from = top
		}
		k := from[e.rng.Intn(len(from))]
		e.keys = append(e.keys, queryKey{key: k, truth: counts[k]})
	}
}

// newController builds a controller with the workload's long-lived tasks
// deployed and returns their IDs in tasks() order.
func (w *workload) newController(cfg controlplane.Config) (*controlplane.Controller, []int, error) {
	c := controlplane.NewController(cfg)
	var ids []int
	for _, spec := range w.tasks() {
		t, err := c.AddTask(spec)
		if err != nil {
			c.Close()
			return nil, nil, err
		}
		ids = append(ids, t.ID)
	}
	return c, ids, nil
}

// deploy constructs the system under test and its long-lived tasks.
func (e *env) deploy() error {
	cfg := e.w.config()
	if e.w.daemons == 0 {
		ctrl, ids, err := e.w.newController(cfg)
		if err != nil {
			return err
		}
		e.ctrl, e.cmsID = ctrl, ids[0]
		e.expect = make(map[int]string)
		for i, spec := range e.w.tasks() {
			e.expect[ids[i]] = spec.Name
		}
		return nil
	}
	clients := make([]*rpc.Client, e.w.daemons)
	for i := range clients {
		d := daemon{ctrl: controlplane.NewController(cfg)}
		d.srv = rpc.NewServer(d.ctrl, nil)
		e.daemons = append(e.daemons, d)
		addr, err := d.srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		c, err := rpc.DialOptions(addr, rpc.Options{})
		if err != nil {
			return err
		}
		e.daemons[i].client, clients[i] = c, c
	}
	e.fleet = netwide.NewRemoteFleetOptions(clients, cfg, netwide.FleetOptions{})
	return e.fleet.DeployEpoch(freqSpec(epochTask))
}

func newReplayer(t *mmtrace.Trace) (*mmtrace.Replayer, error) {
	return mmtrace.NewReplayer(mmtrace.ReplayConfig{Traces: []*mmtrace.Trace{t}, Workers: workers, Passes: 1})
}

// replay pushes one trace file through ctrl exactly as flymond -replay
// does: a fresh single-pass Replayer drained by ProcessFrameSource.
func (e *env) replay(ctrl *controlplane.Controller, t *mmtrace.Trace, parent, round int) error {
	id := e.h.begin("mmtrace.NewReplayer", parent, round)
	rep, err := newReplayer(t)
	e.h.end(id)
	if err != nil {
		return err
	}
	id = e.h.begin("controlplane.ProcessFrameSource", parent, round)
	rep.Start()
	ctrl.ProcessFrameSource(rep)
	e.h.end(id)
	if got := rep.Stats().Packets; got != uint64(t.Frames()) {
		return fmt.Errorf("replay delivered %d of %d frames", got, t.Frames())
	}
	return nil
}

// verifyEngines replays the first file through ProcessFrameSource and
// through sequential ProcessBatch on two fresh controllers and requires
// bit-identical registers for every long-lived task.
func (e *env) verifyEngines() error {
	var ctrls [2]*controlplane.Controller
	var ids []int
	for i := range ctrls {
		c, cids, err := e.w.newController(e.w.config())
		if err != nil {
			return err
		}
		defer c.Close()
		ctrls[i], ids = c, cids
	}
	t := e.traces[0]
	if err := e.replay(ctrls[0], t, -1, -1); err != nil {
		return err
	}
	buf := make([]packet.Packet, 4096)
	for lo := 0; lo < t.Frames(); lo += len(buf) {
		n := min(len(buf), t.Frames()-lo)
		t.DecodeRange(lo, buf[:n])
		ctrls[1].ProcessBatch(buf[:n])
	}
	for _, id := range ids {
		got, err := ctrls[0].ReadRegisters(id)
		if err != nil {
			return err
		}
		want, err := ctrls[1].ReadRegisters(id)
		if err != nil {
			return err
		}
		if err := sameRows(got, want); err != nil {
			return fmt.Errorf("task %d: frame engine vs sequential ProcessBatch: %w", id, err)
		}
	}
	return nil
}

func sameRows(got, want [][]uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows vs %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d buckets vs %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("row %d bucket %d: %d vs %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// close releases everything setUp acquired; the trace files go with the
// run directory.
func (e *env) close() {
	for _, d := range e.daemons {
		if d.client != nil {
			d.client.Close()
		}
		d.srv.Close()
		d.ctrl.Close()
	}
	if e.ctrl != nil {
		e.ctrl.Close()
	}
	for _, t := range e.traces {
		t.Close()
	}
}
