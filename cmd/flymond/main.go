// Command flymond is the FlyMon switch daemon: it hosts the simulated RMT
// data plane (CMU Groups + registers) and serves the southbound control
// channel that flymonctl and SDM controllers speak.
//
// Usage:
//
//	flymond [-listen :9177] [-admin :9090] [-groups 9] [-buckets 65536]
//	        [-bitwidth 32] [-mode accurate|efficient] [-workers N] [-sharded]
//	        [-replay trace.fmt[,more.fmt] [-replay-loop]] [-hello-gc 2m]
//	        [-log-level info] [-trace-buf 4096] [-version]
//	        [-chaos-seed N -chaos-read-delay 5ms -chaos-write-delay 5ms
//	         -chaos-reset-every N -chaos-corrupt-every N]
//
// The -replay flag puts the daemon in soak mode: the named traces are
// mmapped and replayed through the data plane (via the zero-copy span
// ring, internal/mmtrace) while the control channel keeps serving —
// reconfigurations land mid-replay, and /metrics exposes replay progress
// and ring occupancy. -replay-loop replays until shutdown.
//
// The -chaos-* flags wrap the control channel in the fault-injecting
// transport (internal/faultnet) for resilience drills: delays, connection
// resets, and corrupt frames on every accepted connection, from a seeded
// deterministic plan. They exist so operators can rehearse exactly the
// failures the resilient client claims to survive.
//
// The -admin flag opens the telemetry/debug HTTP listener: Prometheus
// metrics on /metrics, the reconfiguration journal on /debug/events, the
// control-plane trace span buffer on /debug/trace (add ?format=tree for
// rendered span trees), and the standard pprof handlers on
// /debug/pprof/. Telemetry itself is always
// on (the registry also answers flymonctl's `stats` over the control
// channel); -admin only controls the HTTP exposition.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/faultnet"
	"flymon/internal/mmtrace"
	"flymon/internal/rpc"
	"flymon/internal/telemetry"
	"flymon/internal/tracing"
)

func main() {
	listen := flag.String("listen", ":9177", "control-channel listen address")
	admin := flag.String("admin", "", "telemetry/debug HTTP listen address (/metrics, /debug/events, /debug/pprof/); empty = disabled")
	groups := flag.Int("groups", 9, "CMU Groups in the pipeline (9 = full cross-stacked Tofino pipeline)")
	spliced := flag.Int("spliced", 0, "additional Appendix-E groups reached by mirror+recirculation (max 3)")
	buckets := flag.Int("buckets", 65536, "register buckets per CMU")
	bitWidth := flag.Int("bitwidth", 32, "register bucket width in bits")
	partitions := flag.Int("partitions", 32, "memory partitions per CMU")
	mode := flag.String("mode", "accurate", "memory allocation mode: accurate or efficient")
	workers := flag.Int("workers", 0, "replay pool workers, which fix the register write policy: 1 = the worker is every register's sole writer and stores plainly; more share the buckets atomically, or write lanes with -sharded (0 = GOMAXPROCS)")
	sharded := flag.Bool("sharded", false, "with -workers above 1: mergeable ops write per-worker plain-store lanes, reduced on query (one worker already stores plainly)")
	replay := flag.String("replay", "", "soak mode: replay these comma-separated FLYMTRC traces through the data plane while serving the control channel")
	replayLoop := flag.Bool("replay-loop", false, "loop the -replay traces until shutdown instead of replaying once")
	chaosSeed := flag.Int64("chaos-seed", 0, "fault-injection seed (0 with other chaos flags = seed 1)")
	chaosReadDelay := flag.Duration("chaos-read-delay", 0, "max injected delay per control-channel read")
	chaosWriteDelay := flag.Duration("chaos-write-delay", 0, "max injected delay per control-channel write")
	chaosResetEvery := flag.Int("chaos-reset-every", 0, "inject a connection reset every Nth I/O op (0 = never)")
	chaosCorruptEvery := flag.Int("chaos-corrupt-every", 0, "corrupt every Nth response frame (0 = never)")
	helloGC := flag.Duration("hello-gc", rpc.DefaultHelloGC, "drop controller liveness sessions idle this long (floored at 16× their advertised tx interval)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error, or off")
	traceBuf := flag.Int("trace-buf", tracing.DefaultBufferSpans, "control-plane trace span buffer capacity (0 = tracing disabled)")
	version := flag.Bool("version", false, "print version and build info, then exit")
	flag.Parse()

	if *version {
		fmt.Printf("flymond %s\n", telemetry.ReadBuildInfo())
		return
	}
	lvl, err := telemetry.ParseLogLevel(*logLevel)
	if err != nil {
		log.Fatalf("flymond: %v", err)
	}
	logger := telemetry.NewLogger("flymond", lvl, os.Stderr)

	var memMode controlplane.MemoryMode
	switch strings.ToLower(*mode) {
	case "accurate":
		memMode = controlplane.Accurate
	case "efficient":
		memMode = controlplane.Efficient
	default:
		log.Fatalf("flymond: unknown memory mode %q", *mode)
	}

	reg := telemetry.NewRegistry()
	ctrl := controlplane.NewController(controlplane.Config{
		Groups:        *groups,
		SplicedGroups: *spliced,
		Buckets:       *buckets,
		BitWidth:      *bitWidth,
		Partitions:    *partitions,
		Mode:          memMode,
		Workers:       *workers,
		ShardedState:  *sharded,
		Telemetry:     reg,
	})
	srv := rpc.NewServer(ctrl, nil)
	srv.SetLogger(logger.With("rpc"))
	srv.SetTelemetry(reg)
	srv.SetHelloGC(*helloGC)
	var tracer *tracing.Tracer
	if *traceBuf > 0 {
		tracer = tracing.New(*traceBuf)
		srv.SetTracer(tracer)
		reg.AddFamilySource(tracer)
	}
	plan := faultnet.Plan{
		Seed:         *chaosSeed,
		ReadDelay:    *chaosReadDelay,
		WriteDelay:   *chaosWriteDelay,
		ResetEvery:   *chaosResetEvery,
		CorruptEvery: *chaosCorruptEvery,
	}
	chaotic := plan.Seed != 0 || plan.ReadDelay > 0 || plan.WriteDelay > 0 ||
		plan.ResetEvery > 0 || plan.CorruptEvery > 0
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("flymond: listen %s: %v", *listen, err)
	}
	addr := ln.Addr().String()
	if chaotic {
		if plan.Seed == 0 {
			plan.Seed = 1 // a seeded plan is reproducible; 0 would collapse the rng streams
		}
		fmt.Printf("flymond: CHAOS MODE: control channel under fault plan %+v\n", plan)
		srv.Serve(faultnet.WrapListener(ln, plan))
	} else {
		srv.Serve(ln)
	}
	fmt.Printf("flymond: %d+%d CMU Groups (%d CMUs), %d×%d-bit buckets/CMU, %s allocation\n",
		*groups, ctrl.Pipeline().SplicedGroups(), (*groups+ctrl.Pipeline().SplicedGroups())*3, *buckets, *bitWidth, memMode)
	switch {
	case ctrl.Workers() == 1:
		fmt.Println("flymond: register writes: 1 worker, the sole writer: plain stores, queries exclude it")
	case ctrl.Sharded():
		fmt.Printf("flymond: register writes: %d workers, sharded: plain-store lanes per CMU, reduced on query\n", ctrl.Workers())
	default:
		fmt.Printf("flymond: register writes: %d workers, shared buckets: interlocked updates\n", ctrl.Workers())
	}
	fmt.Printf("flymond: control channel on %s\n", addr)

	var adminSrv *http.Server
	if *admin != "" {
		aln, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Fatalf("flymond: admin listen %s: %v", *admin, err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", reg.Handler())
		mux.Handle("/debug/trace", tracing.Handler(tracer))
		adminSrv = &http.Server{Handler: mux}
		go func() {
			if err := adminSrv.Serve(aln); err != nil && err != http.ErrServerClosed {
				logger.Errorf("admin: %v", err)
			}
		}()
		fmt.Printf("flymond: telemetry on http://%s/metrics (journal: /debug/events, traces: /debug/trace, pprof: /debug/pprof/)\n", aln.Addr())
	}

	// Soak mode: replay traces through the data plane in the background
	// while the control channel stays live — reconfigurations issued via
	// flymonctl take effect mid-replay at batch granularity, exercising
	// exactly the on-the-fly property under sustained load. The replayer
	// registers with telemetry, so /metrics shows ring occupancy and stall
	// counters while it runs.
	var replayer *mmtrace.Replayer
	replayDone := make(chan struct{})
	if *replay != "" {
		var traces []*mmtrace.Trace
		for _, path := range strings.Split(*replay, ",") {
			t, err := mmtrace.Open(path)
			if err != nil {
				if t == nil {
					log.Fatalf("flymond: replay: %v", err)
				}
				logger.Warnf("replay: %s: %v (replaying the intact prefix)", path, err)
			}
			traces = append(traces, t)
		}
		passes := 1
		if *replayLoop {
			passes = -1
		}
		var err error
		replayer, err = mmtrace.NewReplayer(mmtrace.ReplayConfig{
			Traces:  traces,
			Workers: ctrl.Workers(),
			Passes:  passes,
		})
		if err != nil {
			log.Fatalf("flymond: replay: %v", err)
		}
		reg.SetReplaySource(replayer)
		replayStart := time.Now()
		fmt.Printf("flymond: replaying %d trace(s) (loop=%v)\n", len(traces), *replayLoop)
		go func() {
			defer close(replayDone)
			// Frame-native drain: spans execute straight off the mmapped
			// records; control-channel reconfigurations still land at span
			// boundaries (a snapshot with sampled or spliced rules runs
			// them in packet order inside the same call).
			ctrl.ProcessFrameSource(replayer)
			elapsed := time.Since(replayStart)
			reg.ClearReplaySource(replayer)
			for _, t := range traces {
				t.Close()
			}
			n := replayer.Packets()
			fmt.Printf("flymond: replay finished: %d packets in %v, %.2f Mpps\n",
				n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds()/1e6)
		}()
	} else {
		close(replayDone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("flymond: shutting down")
	if replayer != nil {
		replayer.Stop()
		<-replayDone
	}
	if adminSrv != nil {
		adminSrv.Close()
	}
	if err := srv.Close(); err != nil {
		logger.Errorf("close: %v", err)
	}
}
