package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flymon/internal/controlplane"
	"flymon/internal/packet"
	"flymon/internal/trace"
	"flymon/internal/tracing"
)

// writeTraceFile writes ps in trafficgen's file format, then drops `cut`
// bytes off the end (0 = intact file).
func writeTraceFile(t *testing.T, ps []packet.Packet, cut int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.fmt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTrace(&trace.Trace{Packets: ps}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if cut > 0 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-cut); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// handleJSON runs one request through the server's handler in-process, so
// the handler's own error value (not its wire string) reaches the test.
func handleJSON(t *testing.T, s *Server, method string, params any) (any, error) {
	t.Helper()
	raw, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	return s.handle(method, raw, tracing.SpanContext{})
}

// TestTraceRequestsRejected: the daemon bounds what a peer may make it
// allocate or map — sizes past the named limits draw a rangeError naming
// the parameter, a file that ends mid-record or does not exist is refused
// whole — and every refusal leaves the trace it already holds in place.
func TestTraceRequestsRejected(t *testing.T) {
	ctrl := controlplane.NewController(controlplane.Config{Groups: 1, Buckets: 4096})
	t.Cleanup(ctrl.Close)
	s := NewServer(ctrl, nil)
	defer s.Close()
	if _, err := handleJSON(t, s, MethodGenTrace, GenTraceParams{Flows: 50, Packets: 300, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	ps := trace.Generate(trace.Config{Flows: 20, Packets: 100, Seed: 2}).Packets

	for _, tc := range []struct {
		name   string
		method string
		params any
		param  string // the rangeError's parameter; "" = the error must match is
		is     error
	}{
		{"oversize-packets", MethodGenTrace, GenTraceParams{Flows: 10, Packets: maxGenPackets + 1}, "packets", nil},
		{"oversize-flows", MethodGenTrace, GenTraceParams{Flows: maxGenFlows + 1, Packets: 10}, "flows", nil},
		{"negative-packets", MethodGenTrace, GenTraceParams{Flows: 10, Packets: -1}, "packets", nil},
		{"negative-flows", MethodGenTrace, GenTraceParams{Flows: -5, Packets: 10}, "flows", nil},
		{"zero-flows", MethodGenTrace, GenTraceParams{Flows: 0, Packets: 10}, "flows", nil},
		{"truncated-file", MethodLoadTrace, LoadTraceParams{Path: writeTraceFile(t, ps, 7)}, "", io.ErrUnexpectedEOF},
		{"missing-file", MethodLoadTrace, LoadTraceParams{Path: filepath.Join(t.TempDir(), "missing.fmt")}, "", os.ErrNotExist},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := handleJSON(t, s, tc.method, tc.params)
			if tc.param != "" {
				var re *rangeError
				if !errors.As(err, &re) || re.param != tc.param {
					t.Fatalf("error = %v, want a rangeError on %q", err, tc.param)
				}
			} else if !errors.Is(err, tc.is) {
				t.Fatalf("error = %v, want one matching %v", err, tc.is)
			}
			res, err := handleJSON(t, s, MethodStats, nil)
			if err != nil || res.(StatsResult).TracePackets != 300 {
				t.Fatalf("stats after the refusal = %+v, %v; the loaded trace must survive", res, err)
			}
		})
	}

	// At the limits the request is served; an intact file replaces the
	// generated trace and TracePackets follows the loaded frame count.
	if _, err := handleJSON(t, s, MethodGenTrace, GenTraceParams{Flows: 1, Packets: 0}); err != nil {
		t.Fatalf("smallest in-range gen_trace: %v", err)
	}
	if _, err := handleJSON(t, s, MethodLoadTrace, LoadTraceParams{Path: writeTraceFile(t, ps, 0)}); err != nil {
		t.Fatal(err)
	}
	if res, err := handleJSON(t, s, MethodStats, nil); err != nil || res.(StatsResult).TracePackets != len(ps) {
		t.Fatalf("stats after load_trace = %+v, %v; want %d trace packets", res, err, len(ps))
	}
}

// replayTaskMix is a task set spanning the compiled-rule surface — plain
// and filtered frequency, distinct, existence, max over metadata. The
// max-interval task's bus chain is order-dependent across workers, so it
// joins only where one worker replays in trace order.
func replayTaskMix(withChains bool) []controlplane.TaskSpec {
	specs := []controlplane.TaskSpec{
		freqSpec("hh"),
		{Name: "tcp-bytes", Filter: packet.Filter{Proto: 6}, Key: packet.KeySrcIP,
			Attribute: controlplane.AttrFrequency,
			Param:     controlplane.ParamSpec{Kind: controlplane.ParamPacketBytes}, MemBuckets: 2048, D: 2},
		{Name: "victims", Key: packet.KeyDstIP, Attribute: controlplane.AttrDistinct,
			Param: controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeySrcIP}, MemBuckets: 2048, D: 2},
		{Name: "seen", Key: packet.KeyFiveTuple, Attribute: controlplane.AttrExistence,
			Param: controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeyFiveTuple}, MemBuckets: 2048},
		{Name: "qdepth", Key: packet.KeyFiveTuple, Attribute: controlplane.AttrMax,
			Param: controlplane.ParamSpec{Kind: controlplane.ParamQueueLength}, MemBuckets: 2048},
	}
	if withChains {
		specs = append(specs, controlplane.TaskSpec{
			Name: "interval", Key: packet.KeySrcIP, Attribute: controlplane.AttrMax,
			Param: controlplane.ParamSpec{Kind: controlplane.ParamPacketInterval}, MemBuckets: 2048,
		})
	}
	return specs
}

// TestRPCReplayMatchesSequentialReference: gen_trace + replay on a daemon —
// a prefix first, then the whole trace — must leave every task's registers
// bit-identical to the sequential reference (ProcessBatch of the same
// generated packets on a separate controller), at one and four workers,
// shared and sharded. The daemon's replay runs the pool's frame drain; the
// reference never touches it.
func TestRPCReplayMatchesSequentialReference(t *testing.T) {
	gen := GenTraceParams{Flows: 300, Packets: 20_000, ZipfS: 1.2, Seed: 23}
	const prefix = 7_000
	ps := trace.Generate(trace.Config{
		Flows: gen.Flows, Packets: gen.Packets, ZipfS: gen.ZipfS, Seed: gen.Seed,
	}).Packets

	for _, mode := range []struct {
		workers int
		sharded bool
	}{{1, false}, {4, false}, {1, true}, {4, true}} {
		t.Run(fmt.Sprintf("workers-%d-sharded-%v", mode.workers, mode.sharded), func(t *testing.T) {
			specs := replayTaskMix(mode.workers == 1 && !mode.sharded)
			cfg := controlplane.Config{Groups: 9, Buckets: 16384, BitWidth: 32}
			ref := controlplane.NewController(cfg)
			t.Cleanup(ref.Close)
			cfg.Workers, cfg.ShardedState = mode.workers, mode.sharded
			ctrl := controlplane.NewController(cfg)
			defer ctrl.Close()
			for _, spec := range specs {
				for _, c := range []*controlplane.Controller{ref, ctrl} {
					if _, err := c.AddTask(spec); err != nil {
						t.Fatalf("AddTask(%s): %v", spec.Name, err)
					}
				}
			}
			ref.ProcessBatch(ps[:prefix])
			ref.ProcessBatch(ps)

			srv := NewServer(ctrl, nil)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if n, err := c.GenTrace(gen.Flows, gen.Packets, gen.ZipfS, gen.Seed); err != nil || n != gen.Packets {
				t.Fatalf("GenTrace = %d, %v", n, err)
			}
			if n, err := c.Replay(prefix); err != nil || n != prefix {
				t.Fatalf("Replay(%d) = %d, %v", prefix, n, err)
			}
			if n, err := c.Replay(0); err != nil || n != gen.Packets {
				t.Fatalf("Replay(0) = %d, %v", n, err)
			}

			for _, task := range ref.Tasks() {
				want, err := ref.ReadRegisters(task.ID)
				if err != nil {
					t.Fatal(err)
				}
				got := wireRows(t, c, task.ID, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("task %d (%s): daemon replay differs from the sequential reference", task.ID, task.Spec.Name)
				}
			}
			if stats, err := c.Stats(); err != nil || stats.PacketsProcessed != uint64(prefix+gen.Packets) {
				t.Fatalf("stats = %+v, %v; want %d packets processed", stats, err, prefix+gen.Packets)
			}
		})
	}
}
