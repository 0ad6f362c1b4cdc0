package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
)

// Handler returns the admin-endpoint mux flymond mounts on its -admin
// listener:
//
//	/metrics       Prometheus text exposition of the full registry
//	/debug/events  the reconfiguration journal as JSON
//	/debug/pprof/  the standard Go profiler endpoints
//	/              a plain index of the above
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteMetrics(w)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Total   uint64  `json:"total"`
			Dropped uint64  `json:"dropped"`
			Events  []Event `json:"events"`
		}{r.Journal.Total(), r.Journal.Dropped(), r.Journal.Events()})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "flymond admin endpoints:\n  /metrics\n  /debug/events\n  /debug/pprof/\n")
	})
	return mux
}

// WriteMetrics renders the registry as Prometheus text-format metrics,
// followed by any sections registered via AddMetricsWriter.
func (r *Registry) WriteMetrics(w io.Writer) {
	rep := r.Report()
	WriteMetricsReport(w, rep)
	r.writeExternal(w)
}

// WriteMetricsReport renders an already-assembled Report as Prometheus text.
// Split out so flymonctl can render a report fetched over the control
// channel without re-scraping.
func WriteMetricsReport(w io.Writer, rep Report) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# HELP flymon_uptime_seconds Time since the telemetry registry was created.\n")
	p("# TYPE flymon_uptime_seconds gauge\n")
	p("flymon_uptime_seconds %g\n", float64(rep.UptimeNs)/1e9)

	dp := rep.DataPlane
	p("# HELP flymon_packets_total Packets processed by the data plane.\n")
	p("# TYPE flymon_packets_total counter\n")
	p("flymon_packets_total %d\n", dp.Packets)
	p("# HELP flymon_recirculated_total Packets recirculated into spliced groups.\n")
	p("# TYPE flymon_recirculated_total counter\n")
	p("flymon_recirculated_total %d\n", dp.Recirculated)

	p("# HELP flymon_stage_activity_total Per-stage CMU activity (C/I/P/O).\n")
	p("# TYPE flymon_stage_activity_total counter\n")
	p("flymon_stage_activity_total{stage=\"compression\"} %d\n", dp.Stages.Compression)
	p("flymon_stage_activity_total{stage=\"initialization\"} %d\n", dp.Stages.Initialization)
	p("flymon_stage_activity_total{stage=\"preparation\"} %d\n", dp.Stages.Preparation)
	p("flymon_stage_activity_total{stage=\"operation\"} %d\n", dp.Stages.Operation)

	if len(dp.Rules) > 0 {
		p("# HELP flymon_rule_hits_total Rule executions per installed CMU rule.\n")
		p("# TYPE flymon_rule_hits_total counter\n")
		for _, rs := range dp.Rules {
			p("flymon_rule_hits_total{group=\"%d\",cmu=\"%d\",task=\"%d\",op=\"%s\"} %d\n",
				rs.Group, rs.CMU, rs.Task, rs.Op, rs.Hits)
		}
	}

	if len(dp.Registers) > 0 {
		p("# HELP flymon_register_buckets Configured buckets per CMU register.\n")
		p("# TYPE flymon_register_buckets gauge\n")
		for _, rg := range dp.Registers {
			p("flymon_register_buckets{group=\"%d\",cmu=\"%d\"} %d\n", rg.Group, rg.CMU, rg.Buckets)
		}
		p("# HELP flymon_register_occupied_buckets Non-zero buckets per CMU register.\n")
		p("# TYPE flymon_register_occupied_buckets gauge\n")
		for _, rg := range dp.Registers {
			p("flymon_register_occupied_buckets{group=\"%d\",cmu=\"%d\"} %d\n", rg.Group, rg.CMU, rg.Occupied)
		}
		p("# HELP flymon_register_clamps_total CondADD saturation clamp events per CMU register.\n")
		p("# TYPE flymon_register_clamps_total counter\n")
		for _, rg := range dp.Registers {
			p("flymon_register_clamps_total{group=\"%d\",cmu=\"%d\"} %d\n", rg.Group, rg.CMU, rg.Clamps)
		}
		p("# HELP flymon_register_accesses_total Stateful operations applied per CMU register.\n")
		p("# TYPE flymon_register_accesses_total counter\n")
		for _, rg := range dp.Registers {
			p("flymon_register_accesses_total{group=\"%d\",cmu=\"%d\"} %d\n", rg.Group, rg.CMU, rg.Accesses)
		}
	}

	p("# HELP flymon_sharded_rules Rules routed to per-worker register lanes.\n")
	p("# TYPE flymon_sharded_rules gauge\n")
	p("flymon_sharded_rules %d\n", dp.ShardedRules)
	p("# HELP flymon_fallback_rules Rules pinned to the shared-CAS path.\n")
	p("# TYPE flymon_fallback_rules gauge\n")
	p("flymon_fallback_rules %d\n", dp.FallbackRules)

	if rp := rep.Replay; rp != nil {
		active := 0
		if rp.Active {
			active = 1
		}
		p("# HELP flymon_replay_active Whether a trace replay is currently attached.\n")
		p("# TYPE flymon_replay_active gauge\n")
		p("flymon_replay_active %d\n", active)
		p("# HELP flymon_replay_packets_total Packets delivered to workers by the replay ring.\n")
		p("# TYPE flymon_replay_packets_total counter\n")
		p("flymon_replay_packets_total %d\n", rp.Packets)
		p("# HELP flymon_replay_producers Producer goroutines still feeding the ring.\n")
		p("# TYPE flymon_replay_producers gauge\n")
		p("flymon_replay_producers %d\n", rp.Producers)
		p("# HELP flymon_replay_ring_capacity Span capacity of the replay ring.\n")
		p("# TYPE flymon_replay_ring_capacity gauge\n")
		p("flymon_replay_ring_capacity %d\n", rp.RingCap)
		p("# HELP flymon_replay_ring_occupancy Spans enqueued but not yet consumed.\n")
		p("# TYPE flymon_replay_ring_occupancy gauge\n")
		p("flymon_replay_ring_occupancy %d\n", rp.RingOccupancy)
		p("# HELP flymon_replay_ring_spans_total Spans ever published to the ring.\n")
		p("# TYPE flymon_replay_ring_spans_total counter\n")
		p("flymon_replay_ring_spans_total %d\n", rp.RingSpans)
		p("# HELP flymon_replay_ring_stalls_total Ring waits by side (push = ring full, pop = ring empty).\n")
		p("# TYPE flymon_replay_ring_stalls_total counter\n")
		p("flymon_replay_ring_stalls_total{side=\"push\"} %d\n", rp.PushStalls)
		p("flymon_replay_ring_stalls_total{side=\"pop\"} %d\n", rp.PopStalls)
	}

	cp := rep.ControlPlane
	p("# HELP flymon_snapshot_version Monotonic version of the published pipeline snapshot.\n")
	p("# TYPE flymon_snapshot_version gauge\n")
	p("flymon_snapshot_version %d\n", cp.SnapshotVersion)
	p("# HELP flymon_reconfig_events_total Reconfiguration events ever journaled.\n")
	p("# TYPE flymon_reconfig_events_total counter\n")
	p("flymon_reconfig_events_total %d\n", cp.EventsTotal)
	p("# HELP flymon_reconfig_events_dropped_total Journal entries evicted by the bounded ring.\n")
	p("# TYPE flymon_reconfig_events_dropped_total counter\n")
	p("flymon_reconfig_events_dropped_total %d\n", cp.EventsDropped)

	writeHistogram(p, "flymon_reconfig_latency_seconds", "Latency of control-plane mutations (deploy/remove/resize/split/rekey).", cp.MutationLatency)
	writeHistogram(p, "flymon_drain_latency_seconds", "Latency of register-lane drains on the query path.", cp.DrainLatency)

	writeRPC(p, rep.RPCClient, rep.RPCServer)

	fl := rep.Fleet
	p("# HELP flymon_fleet_fan_outs_total Fleet-wide operations issued by RemoteFleet.\n")
	p("# TYPE flymon_fleet_fan_outs_total counter\n")
	p("flymon_fleet_fan_outs_total %d\n", fl.FanOuts)
	p("# HELP flymon_fleet_op_failures_total Per-switch operation failures inside fleet fan-outs.\n")
	p("# TYPE flymon_fleet_op_failures_total counter\n")
	p("flymon_fleet_op_failures_total %d\n", fl.OpFailures)
	p("# HELP flymon_fleet_partial_merges_total Degraded-mode merges missing at least one switch.\n")
	p("# TYPE flymon_fleet_partial_merges_total counter\n")
	p("flymon_fleet_partial_merges_total %d\n", fl.PartialMerges)
	p("# HELP flymon_fleet_health_transitions_total Switch health state transitions.\n")
	p("# TYPE flymon_fleet_health_transitions_total counter\n")
	p("flymon_fleet_health_transitions_total{to=\"healthy\"} %d\n", fl.ToHealthy)
	p("flymon_fleet_health_transitions_total{to=\"degraded\"} %d\n", fl.ToDegraded)
	p("flymon_fleet_health_transitions_total{to=\"down\"} %d\n", fl.ToDown)

	p("# HELP flymon_fleet_session_transitions_total Liveness session state transitions.\n")
	p("# TYPE flymon_fleet_session_transitions_total counter\n")
	p("flymon_fleet_session_transitions_total{to=\"up\"} %d\n", fl.SessionToUp)
	p("flymon_fleet_session_transitions_total{to=\"init\"} %d\n", fl.SessionToInit)
	p("flymon_fleet_session_transitions_total{to=\"down\"} %d\n", fl.SessionToDown)
	p("# HELP flymon_fleet_ejects_total Switches pulled from fan-outs/merges by liveness.\n")
	p("# TYPE flymon_fleet_ejects_total counter\n")
	p("flymon_fleet_ejects_total %d\n", fl.Ejects)
	p("# HELP flymon_fleet_rejoins_total Switches readmitted after liveness recovery.\n")
	p("# TYPE flymon_fleet_rejoins_total counter\n")
	p("flymon_fleet_rejoins_total %d\n", fl.Rejoins)
	p("# HELP flymon_fleet_reconcile_runs_total Desired-vs-observed anti-entropy passes.\n")
	p("# TYPE flymon_fleet_reconcile_runs_total counter\n")
	p("flymon_fleet_reconcile_runs_total %d\n", fl.ReconcileRuns)
	p("# HELP flymon_fleet_redeploys_total Missing tasks re-deployed by the reconciler.\n")
	p("# TYPE flymon_fleet_redeploys_total counter\n")
	p("flymon_fleet_redeploys_total %d\n", fl.Redeploys)
	p("# HELP flymon_fleet_reconcile_errors_total Per-switch reconcile failures.\n")
	p("# TYPE flymon_fleet_reconcile_errors_total counter\n")
	p("flymon_fleet_reconcile_errors_total %d\n", fl.ReconcileErrors)

	if len(fl.Sessions) > 0 {
		p("# HELP flymon_fleet_session_state Liveness session state per switch (0=down, 1=init, 2=up).\n")
		p("# TYPE flymon_fleet_session_state gauge\n")
		for _, s := range fl.Sessions {
			v := 0
			switch s.State {
			case "init":
				v = 1
			case "up":
				v = 2
			}
			p("flymon_fleet_session_state{switch=\"%d\",addr=\"%s\"} %d\n", s.Switch, s.Addr, v)
		}
		p("# HELP flymon_fleet_session_damped Whether flap damping is holding the switch out of service.\n")
		p("# TYPE flymon_fleet_session_damped gauge\n")
		for _, s := range fl.Sessions {
			v := 0
			if s.Damped {
				v = 1
			}
			p("flymon_fleet_session_damped{switch=\"%d\",addr=\"%s\"} %d\n", s.Switch, s.Addr, v)
		}
	}

	writeHistogram(p, "flymon_fleet_detection_seconds", "Liveness failure-detection latency (last good reply to Down).", fl.DetectionTime)

	mt := fl.MergeTree
	p("# HELP flymon_fleet_merge_queries_total Merge-tree fleet queries executed.\n")
	p("# TYPE flymon_fleet_merge_queries_total counter\n")
	p("flymon_fleet_merge_queries_total{engine=\"tree\"} %d\n", mt.Queries)
	p("# HELP flymon_fleet_merge_nodes_total Interior merge nodes executed by the merge tree.\n")
	p("# TYPE flymon_fleet_merge_nodes_total counter\n")
	p("flymon_fleet_merge_nodes_total %d\n", mt.Merges)
	p("# HELP flymon_fleet_merge_epoch_queries_total Fleet queries pinned to an epoch boundary.\n")
	p("# TYPE flymon_fleet_merge_epoch_queries_total counter\n")
	p("flymon_fleet_merge_epoch_queries_total %d\n", mt.EpochQueries)
	p("# HELP flymon_fleet_epoch_cache_total Epoch queries by artifact-store result (hit = served from a stored complete merge).\n")
	p("# TYPE flymon_fleet_epoch_cache_total counter\n")
	p("flymon_fleet_epoch_cache_total{result=\"hit\"} %d\n", mt.EpochCacheHits)
	p("flymon_fleet_epoch_cache_total{result=\"miss\"} %d\n", mt.EpochCacheMisses)
	p("# HELP flymon_fleet_merge_depth Depth of the last completed merge tree.\n")
	p("# TYPE flymon_fleet_merge_depth gauge\n")
	p("flymon_fleet_merge_depth %d\n", mt.LastDepth)
	p("# HELP flymon_fleet_merge_fanout Leaves merged by the last completed merge tree.\n")
	p("# TYPE flymon_fleet_merge_fanout gauge\n")
	p("flymon_fleet_merge_fanout %d\n", mt.LastFanout)
	p("# HELP flymon_fleet_merge_stragglers_total Epoch-query straggler outcomes by policy result.\n")
	p("# TYPE flymon_fleet_merge_stragglers_total counter\n")
	p("flymon_fleet_merge_stragglers_total{outcome=\"caught_up\"} %d\n", mt.StragglerWaits)
	p("flymon_fleet_merge_stragglers_total{outcome=\"skipped\"} %d\n", mt.StragglersSkipped)
	p("flymon_fleet_merge_stragglers_total{outcome=\"timed_out\"} %d\n", mt.StragglersTimedOut)
	writeHistogram(p, "flymon_fleet_merge_latency_seconds", "Latency of one interior merge node.", mt.MergeLatency)
	for lvl := range mt.LevelLatency {
		h := mt.LevelLatency[lvl]
		if h.Count == 0 {
			continue
		}
		writeHistogram(p, fmt.Sprintf("flymon_fleet_merge_level%d_latency_seconds", lvl),
			fmt.Sprintf("Latency of interior merges at tree level %d.", lvl), h)
	}
	writeHistogram(p, "flymon_fleet_merge_straggler_wait_seconds", "Time spent polling epoch stragglers.", mt.StragglerWait)
}

func writeHistogram(p func(string, ...any), name, help string, h HistogramSnapshot) {
	p("# HELP %s %s\n", name, help)
	p("# TYPE %s histogram\n", name)
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if i == HistogramBuckets-1 {
			break // the open-ended bucket is the +Inf line below
		}
		// Skip interior empty prefixes? No: Prometheus wants every bucket,
		// but 31 lines per histogram is noisy — emit only buckets up to the
		// last non-empty one, then +Inf. Cumulative values stay correct.
		if cum == 0 {
			continue
		}
		p("%s_bucket{le=\"%g\"} %d\n", name, float64(BucketUpperNs(i))/1e9, cum)
	}
	p("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	p("%s_sum %g\n", name, float64(h.SumNs)/1e9)
	p("%s_count %d\n", name, h.Count)
}

// writeRPC renders both control-channel sides as one metric family per
// counter (a family's HELP/TYPE may appear only once in the exposition).
func writeRPC(p func(string, ...any), client, server RPCReport) {
	sides := []struct {
		name string
		r    RPCReport
	}{{"client", client}, {"server", server}}
	family := func(name, help string, field func(EndpointSnapshot) uint64) {
		p("# HELP %s %s\n", name, help)
		p("# TYPE %s counter\n", name)
		for _, s := range sides {
			for _, ep := range s.r.Endpoints {
				p("%s{side=\"%s\",method=\"%s\"} %d\n", name, s.name, ep.Method, field(ep))
			}
		}
	}
	family("flymon_rpc_requests_total", "Control-channel requests per endpoint.",
		func(ep EndpointSnapshot) uint64 { return ep.Requests })
	family("flymon_rpc_failures_total", "Control-channel request failures per endpoint.",
		func(ep EndpointSnapshot) uint64 { return ep.Failures })
	family("flymon_rpc_retries_total", "Client retry attempts per endpoint.",
		func(ep EndpointSnapshot) uint64 { return ep.Retries })
	family("flymon_rpc_timeouts_total", "Request failures classified as timeouts per endpoint.",
		func(ep EndpointSnapshot) uint64 { return ep.Timeouts })
	p("# HELP flymon_rpc_breaker_transitions_total Circuit-breaker state transitions.\n")
	p("# TYPE flymon_rpc_breaker_transitions_total counter\n")
	for _, s := range sides {
		p("flymon_rpc_breaker_transitions_total{side=\"%s\",to=\"open\"} %d\n", s.name, s.r.BreakerOpen)
		p("flymon_rpc_breaker_transitions_total{side=\"%s\",to=\"half-open\"} %d\n", s.name, s.r.BreakerHalfOpen)
		p("flymon_rpc_breaker_transitions_total{side=\"%s\",to=\"closed\"} %d\n", s.name, s.r.BreakerClosed)
	}
	p("# HELP flymon_rpc_server_panics_total Handler panics recovered into error responses.\n")
	p("# TYPE flymon_rpc_server_panics_total counter\n")
	p("flymon_rpc_server_panics_total %d\n", server.Panics)
}
