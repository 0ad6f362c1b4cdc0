package rpc

import (
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"

	"flymon/internal/controlplane"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	ctrl := controlplane.NewController(controlplane.Config{Groups: 3, Buckets: 65536, BitWidth: 32})
	srv := NewServer(ctrl, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return srv, client
}

func freqSpec(name string) controlplane.TaskSpec {
	return controlplane.TaskSpec{
		Name: name, Key: packet.KeyFiveTuple,
		Attribute: controlplane.AttrFrequency, MemBuckets: 4096, D: 3,
	}
}

func TestPing(t *testing.T) {
	_, c := startServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestTaskLifecycleOverRPC(t *testing.T) {
	_, c := startServer(t)
	task, err := c.AddTask(freqSpec("rpc-task"))
	if err != nil {
		t.Fatal(err)
	}
	if task.ID != 1 || task.Algorithm != "FlyMon-CMS" || task.Buckets != 4096 {
		t.Fatalf("task = %+v", task)
	}
	if task.Delay <= 0 {
		t.Fatal("deploy delay must cross the wire")
	}
	tasks, err := c.ListTasks()
	if err != nil || len(tasks) != 1 {
		t.Fatalf("ListTasks = %v, %v", tasks, err)
	}
	resized, err := c.ResizeTask(task.ID, 8192)
	if err != nil || resized.Buckets != 8192 {
		t.Fatalf("resize = %+v, %v", resized, err)
	}
	if err := c.RemoveTask(task.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveTask(task.ID); err == nil || !strings.Contains(err.Error(), "no task") {
		t.Fatalf("second remove error = %v", err)
	}
}

func TestWorkloadAndEstimateOverRPC(t *testing.T) {
	_, c := startServer(t)
	task, err := c.AddTask(freqSpec("est"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.GenTrace(500, 20_000, 1.2, 5)
	if err != nil || n != 20_000 {
		t.Fatalf("GenTrace = %d, %v", n, err)
	}
	done, err := c.Replay(0)
	if err != nil || done != 20_000 {
		t.Fatalf("Replay = %d, %v", done, err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.PacketsProcessed != 20_000 || stats.TracePackets != 20_000 || stats.Tasks != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// An arbitrary key estimates without error (value may be zero).
	if _, err := c.Estimate(task.ID, packet.CanonicalKey{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if rows := readRows(t, c, task.ID, nil); len(rows) != 3 {
		t.Fatalf("ReadRegisters rows = %d", len(rows))
	}
	res, err := c.Resources()
	if err != nil || res.Tasks != 1 {
		t.Fatalf("Resources = %+v, %v", res, err)
	}
}

func TestReplayWithoutTraceFails(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Replay(0); err == nil || !strings.Contains(err.Error(), "no trace") {
		t.Fatalf("replay without trace error = %v", err)
	}
}

func TestCardinalityAndContainsOverRPC(t *testing.T) {
	_, c := startServer(t)
	hll, err := c.AddTask(controlplane.TaskSpec{
		Name: "card", Attribute: controlplane.AttrDistinct,
		Param:      controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeyFiveTuple},
		MemBuckets: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	bloom, err := c.AddTask(controlplane.TaskSpec{
		Name: "exists", Attribute: controlplane.AttrExistence,
		Param:      controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeyFiveTuple},
		MemBuckets: 4096, D: 3,
		Filter: packet.Filter{DstPort: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GenTrace(2000, 10_000, 1.2, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replay(0); err != nil {
		t.Fatal(err)
	}
	card, err := c.Cardinality(hll.ID)
	if err != nil {
		t.Fatal(err)
	}
	if card < 500 || card > 4000 {
		t.Fatalf("cardinality = %.0f, implausible for ~2000 flows", card)
	}
	// Type mismatch errors propagate.
	if _, err := c.Cardinality(bloom.ID); err == nil {
		t.Fatal("cardinality on a bloom task must fail")
	}
	if _, err := c.Contains(hll.ID, packet.CanonicalKey{}); err == nil {
		t.Fatal("contains on an HLL task must fail")
	}
}

func TestDistributionOverRPC(t *testing.T) {
	_, c := startServer(t)
	task, err := c.AddTask(controlplane.TaskSpec{
		Name: "mrac", Key: packet.KeyFiveTuple,
		Attribute: controlplane.AttrFrequency, MemBuckets: 8192,
		Algorithm: controlplane.AlgMRAC,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GenTrace(1000, 30_000, 1.2, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replay(0); err != nil {
		t.Fatal(err)
	}
	dist, err := c.Distribution(task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Sizes) == 0 || dist.Entropy <= 0 {
		t.Fatalf("distribution = %d sizes, entropy %.3f", len(dist.Sizes), dist.Entropy)
	}
	if len(dist.Sizes) != len(dist.Counts) {
		t.Fatal("sizes/counts length mismatch")
	}
}

func TestReportedOverRPC(t *testing.T) {
	_, c := startServer(t)
	task, err := c.AddTask(controlplane.TaskSpec{
		Name: "hh", Key: packet.KeyFiveTuple,
		Attribute: controlplane.AttrFrequency, Threshold: 100, MemBuckets: 8192, D: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GenTrace(200, 50_000, 1.4, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replay(0); err != nil {
		t.Fatal(err)
	}
	// Candidate set: synthesize packets covering the trace's flows is the
	// caller's job; use a couple of random keys plus verify no error.
	cands := []packet.CanonicalKey{{1}, {2}, {3}}
	if _, err := c.Reported(task.ID, cands); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownMethodAndErrors(t *testing.T) {
	srv, _ := startServer(t)
	resp, _ := srv.dispatch(&Request{ID: 7, Method: "bogus"})
	if resp.Error == nil || !strings.Contains(resp.Error.Msg, "unknown method") {
		t.Fatalf("unknown method response = %+v", resp)
	}
	if resp.ID != 7 {
		t.Fatal("response must echo the request id")
	}
	// Malformed params.
	resp, _ = srv.dispatch(&Request{ID: 8, Method: MethodAddTask, Params: json.RawMessage(`{"spec": 42}`)})
	if resp.Error == nil {
		t.Fatal("malformed params must error")
	}
}

func TestConcurrentClients(t *testing.T) {
	ctrl := controlplane.NewController(controlplane.Config{Groups: 9, Buckets: 65536, BitWidth: 32})
	srv := NewServer(ctrl, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if err := c.Ping(); err != nil {
					errs <- err
					return
				}
				if _, err := c.ListTasks(); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDialFailure(t *testing.T) {
	// Grab a port and close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr); err == nil {
		t.Fatal("dialing a closed port must fail")
	}
}

func TestLargeRegisterReadout(t *testing.T) {
	// A 64K-bucket × 3-row readout is a multi-megabyte JSON payload: the
	// framing must survive it.
	_, c := startServer(t)
	task, err := c.AddTask(controlplane.TaskSpec{
		Name: "big", Key: packet.KeyFiveTuple,
		Attribute: controlplane.AttrFrequency, MemBuckets: 65536, D: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := readRows(t, c, task.ID, nil)
	if len(rows) != 3 || len(rows[0]) != 65536 {
		t.Fatalf("readout shape = %d rows × %d", len(rows), len(rows[0]))
	}
}

func TestSplitTaskOverRPC(t *testing.T) {
	_, c := startServer(t)
	spec := freqSpec("splitme")
	spec.Filter = packet.Filter{SrcPrefix: packet.Prefix{Value: packet.IPv4(10, 0, 0, 0), Bits: 8}}
	task, err := c.AddTask(spec)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := c.SplitTask(task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Name != "splitme-a" || hi.Name != "splitme-b" {
		t.Fatalf("subtask names = %q, %q", lo.Name, hi.Name)
	}
	tasks, _ := c.ListTasks()
	if len(tasks) != 2 {
		t.Fatalf("task count after split = %d", len(tasks))
	}
}

func TestLoadTraceOverRPC(t *testing.T) {
	_, c := startServer(t)
	// Write a trace with trafficgen's format and load it by path.
	tr := trace.Generate(trace.Config{Flows: 50, Packets: 500, Seed: 9})
	path := writeTraceFile(t, tr.Packets, 0)

	n, err := c.LoadTrace(path)
	if err != nil || n != 500 {
		t.Fatalf("LoadTrace = %d, %v", n, err)
	}
	done, err := c.Replay(0)
	if err != nil || done != 500 {
		t.Fatalf("Replay = %d, %v", done, err)
	}
	if _, err := c.LoadTrace(path + ".missing"); err == nil {
		t.Fatal("loading a missing file must fail")
	}
}

func TestResourceReportOverRPC(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.AddTask(freqSpec("rep")); err != nil {
		t.Fatal(err)
	}
	groups, err := c.ResourceReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[0].Rules != 3 || len(groups[0].Tasks) != 1 {
		t.Fatalf("group 0 report = %+v", groups[0])
	}
}

func TestConcurrentReplayAndReadout(t *testing.T) {
	// One client replays traffic while another reads registers and lists
	// tasks — the daemon must serialize data-plane and control-plane
	// access (run under -race to verify).
	ctrl := controlplane.NewController(controlplane.Config{Groups: 3, Buckets: 65536, BitWidth: 32})
	srv := NewServer(ctrl, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	writer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	reader, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	task, err := writer.AddTask(freqSpec("contended"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.GenTrace(500, 5_000, 1.2, 3); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 2)
	go func() {
		for i := 0; i < 10; i++ {
			if _, err := writer.Replay(0); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 50; i++ {
			if _, err := reader.ReadRegisters(task.ID); err != nil {
				done <- err
				return
			}
			if _, err := reader.Estimate(task.ID, packet.CanonicalKey{1}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
