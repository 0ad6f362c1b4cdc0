package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric of the contract in BENCHMARK.json.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics an untraced run reports. Each bound is at least
// three times the widest quartile spread ten seeds showed on any workload
// on the reference host (NOISE.md): ingest_churn sets all of them.
var endToEnd = []metricDef{
	{"pkts_per_s", "pkts/s", "higher", 0.20},
	{"op_p50_us", "us", "lower", 0.15},
	{"op_p90_us", "us", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics a traced run reports, in the order of the
// table in README.md.
var perLayer = []metricDef{
	{"trace.generate_s", "s", "lower", 0},
	{"trace.write_s", "s", "lower", 0},
	{"mmtrace.open_us", "us", "lower", 0},
	{"controlplane.deploy_us", "us", "lower", 0},
	{"harness.verify_s", "s", "lower", 0},
	{"mmtrace.ring_ns_per_pkt", "ns/pkt", "lower", 0},
	{"mmtrace.ring_push_stalls", "count", "lower", 0},
	{"mmtrace.ring_pop_stalls", "count", "lower", 0},
	{"mmtrace.extract_ns_per_pkt", "ns/pkt", "lower", 0},
	{"hashing.digest_ns_per_key", "ns/key", "lower", 0},
	{"dataplane.add_ns_per_update", "ns/update", "lower", 0},
	{"dataplane.apply_ns_per_update", "ns/update", "lower", 0},
	{"dataplane.shard_add_ns_per_update", "ns/update", "lower", 0},
	{"core.frames_ns_per_pkt", "ns/pkt", "lower", 0},
	{"core.frames_idle_ns_per_pkt", "ns/pkt", "lower", 0},
	{"core.fallback_ns_per_pkt", "ns/pkt", "lower", 0},
	{"core.fallback_share", "ratio", "lower", 0},
	{"core.batch_ns_per_pkt", "ns/pkt", "lower", 0},
	{"core.compile_us", "us", "lower", 0},
	{"controlplane.ingest_ns_per_pkt", "ns/pkt", "lower", 0},
	{"harness.packet_budget_gap_pct", "%", "lower", 0},
	{"controlplane.add_task_us", "us", "lower", 0},
	{"controlplane.remove_task_us", "us", "lower", 0},
	{"controlplane.resize_task_us", "us", "lower", 0},
	{"controlplane.drain_us", "us", "lower", 0},
	{"controlplane.read_registers_us", "us", "lower", 0},
	{"controlplane.estimate_key_us", "us", "lower", 0},
	{"epoch.rotate_us", "us", "lower", 0},
	{"rpc.epoch_rotate_us", "us", "lower", 0},
	{"netwide.rotate_us", "us", "lower", 0},
	{"rpc.ping_us", "us", "lower", 0},
	{"rpc.read_epoch_us", "us", "lower", 0},
	{"rpc.read_epoch_bytes", "bytes", "lower", 0},
	{"rpc.failed_calls", "count", "lower", 0},
	{"netwide.merge_us", "us", "lower", 0},
	{"netwide.merge_ns_per_bucket", "ns/bucket", "lower", 0},
	{"netwide.query_rows_us", "us", "lower", 0},
	{"netwide.estimate_us", "us", "lower", 0},
	{"netwide.query_overhead_us", "us", "lower", 0},
	{"harness.query_budget_gap_pct", "%", "lower", 0},
	{"go.allocs_per_kpkt", "1/kpkt", "lower", 0},
	{"go.allocs_per_query", "1/query", "lower", 0},
	{"go.alloc_bytes_per_query", "B/query", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"harness.probe_us_p50", "us", "lower", 0},
	{"harness.machine_factor_p10", "ratio", "lower", 0},
	{"harness.machine_factor_p90", "ratio", "lower", 0},
	{"harness.round_iqr_pct", "%", "lower", 0},
	{"harness.raw_pkts_per_s", "pkts/s", "higher", 0},
	{"harness.raw_op_p50_us", "us", "lower", 0},
	{"harness.op_p99_us", "us", "lower", 0},
	{"harness.trace_overhead_pct", "%", "lower", 0},
}

// spanMetrics are the per-layer metrics that are the median duration of
// the spans with a given name: the workload's own calls when it makes
// them in the timed phase, the lab's otherwise.
var spanMetrics = map[string]string{
	"mmtrace.open_us":                "mmtrace.Open",
	"controlplane.deploy_us":         "controlplane.deploy",
	"core.compile_us":                "core.Compile",
	"controlplane.add_task_us":       "controlplane.AddTask",
	"controlplane.remove_task_us":    "controlplane.RemoveTask",
	"controlplane.resize_task_us":    "controlplane.ResizeTask",
	"controlplane.drain_us":          "controlplane.DrainShards",
	"controlplane.read_registers_us": "controlplane.ReadRegisters",
	"controlplane.estimate_key_us":   "controlplane.EstimateKey",
	"epoch.rotate_us":                "epoch.Rotate",
	"rpc.epoch_rotate_us":            "rpc.EpochRotate",
	"netwide.rotate_us":              "netwide.RotateEpoch",
	"rpc.ping_us":                    "rpc.Ping",
	"rpc.read_epoch_us":              "rpc.ReadEpoch",
	"netwide.merge_us":               "netwide.MergeStream",
	"netwide.query_rows_us":          "netwide.QueryEpochRows",
	"netwide.estimate_us":            "netwide.EstimateKeyEpoch",
}

type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	setups  int    // set-ups per untraced run; setup_s is their median
	out     string // parent of the run directory
	keep    bool   // leave the run directory (spans.json) behind
}

// report is what one run prints.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64 // end-to-end or per-layer, by opts.trace
	notes             []string           // fixed-work counts and diagnostics for the operator
}

// minRounds keeps a 5 % warm-up of at least one round at any -seconds, and
// is the least a cut-short timed phase keeps.
const minRounds = 20

// overrun is how far past -seconds a timed phase may run before it is cut
// short: a slower host must not turn fixed work into a missed deadline.
const overrun = 1.3

// runWorkload sets the workload up, runs its timed phase and checks and
// summarises it. The run directory is created under o.out and removed
// before returning unless o.keep is set.
func runWorkload(w *workload, o runOpts, cleanup *cleaner) (rep report, err error) {
	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-pid%d", w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rep, err
	}
	if !o.keep {
		cleanup.add(dir)
		defer cleanup.run()
	}

	h := newHarness(o.trace)
	if o.trace {
		o.setups = 1
	}
	var e *env
	setups := make([]float64, 0, o.setups)
	for i := 0; i < o.setups; i++ {
		if e != nil {
			e.close()
		}
		var s float64
		if e, s, err = setUp(h, w, o.seed, dir); err != nil {
			return rep, err
		}
		setups = append(setups, s)
	}
	defer e.close()

	var lab map[string]float64
	if o.trace {
		if lab, err = e.lab(); err != nil {
			return rep, err
		}
	}

	rounds := max(minRounds, int(math.Round(float64(w.rounds)*o.seconds/refSeconds)))
	if o.trace {
		rounds = max(minRounds, rounds/2) // per-layer numbers need fewer rounds; the lab took the time
	}
	res := result{
		rounds: make([]roundRec, 0, rounds),
		ops:    make([]opRec, 0, rounds*max(1, w.queries, len(churnPattern))),
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.stale()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		h.on = o.trace && r%2 == 0 // odd rounds run untraced: the difference is the tracing overhead
		e.round(r, &res)
		if el := time.Since(start).Seconds(); el > overrun*o.seconds && r+1 >= minRounds && r+1 < rounds {
			rep.notes = append(rep.notes, fmt.Sprintf("timed phase cut at %d of %d rounds after %.1f s", r+1, rounds, el))
			break
		}
	}
	elapsed := time.Since(start)
	h.on = o.trace
	runtime.ReadMemStats(&after)

	if e.ctrl != nil {
		res.attempted++
		if err := e.checkCMS(); err != nil {
			res.fail(err)
		}
	}

	rep.attempted, rep.failed, rep.failures = res.attempted, res.failed, res.failures
	s := summarise(&res)
	frames := res.frames()
	rep.notes = append(rep.notes,
		fmt.Sprintf("timed phase: %d rounds (%d warm-up), %d frames, %d ops, %.2f s", len(res.rounds), s.warm, frames, len(res.ops), elapsed.Seconds()),
		fmt.Sprintf("op sample: %d latencies; round sample: %d rates", s.opSample, len(res.rounds)-s.warm))

	if !o.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return rep, err
		}
		rep.metrics = map[string]float64{
			"pkts_per_s":  s.rate,
			"op_p50_us":   s.p50,
			"op_p90_us":   s.p90,
			"peak_rss_mb": rss,
			"setup_s":     median(setups),
		}
		return rep, nil
	}

	m, note := layerMetrics(h, e, lab, &res, s, &before, &after)
	rep.notes = append(rep.notes, note)
	rep.metrics = m

	if o.keep {
		path := filepath.Join(dir, "spans.json")
		if err := h.writeSpans(path); err != nil {
			return rep, err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", len(h.spans), path))
	}
	return rep, nil
}

// layerMetrics completes a traced run's per-layer metrics: to the lab's
// isolated timings in m it adds what comes from the spans, the timed phase
// and the allocator's counters, and returns them with the packet-budget
// line for the operator.
func layerMetrics(h *harness, e *env, m map[string]float64, res *result, s summary, before, after *runtime.MemStats) (map[string]float64, string) {
	w := e.w
	for name, spanName := range spanMetrics {
		m[name] = h.spanMedianUs(spanName)
	}
	m["trace.generate_s"] = h.spanMedianUs("trace.Generate") / 1e6
	m["trace.write_s"] = h.spanMedianUs("trace.Write") / 1e6
	m["harness.verify_s"] = h.spanMedianUs("harness.verify") / 1e6
	m["netwide.merge_ns_per_bucket"] = m["netwide.merge_us"] * 1e3 / m["lab.merge_buckets"]
	m["netwide.query_overhead_us"] = m["netwide.query_rows_us"] - m["rpc.read_epoch_us"] - m["netwide.merge_us"]
	m["harness.query_budget_gap_pct"] = 100 * m["netwide.query_overhead_us"] / m["netwide.query_rows_us"]

	ingest := h.spanMedianUs("controlplane.ProcessFrameSource") * 1e3 / float64(w.frames)
	update := m["dataplane.add_ns_per_update"]
	if w.churn {
		update = m["dataplane.apply_ns_per_update"] // no fetch-add fast path off the frequency shape
	}
	stages := m["mmtrace.ring_ns_per_pkt"] + m["lab.extracts_per_pkt"]*m["mmtrace.extract_ns_per_pkt"] +
		m["lab.digests_per_pkt"]*m["hashing.digest_ns_per_key"] + m["lab.updates_per_pkt"]*update
	m["controlplane.ingest_ns_per_pkt"] = ingest
	m["harness.packet_budget_gap_pct"] = 100 * (ingest - stages) / ingest
	note := fmt.Sprintf("packet budget: ring + %.0f extracts + %.2f digests + %.2f updates per packet = %.1f of %.1f ns",
		m["lab.extracts_per_pkt"], m["lab.digests_per_pkt"], m["lab.updates_per_pkt"], stages, ingest)

	frames := res.frames()
	m["core.fallback_share"] = float64(res.fallbackFrames) / float64(frames)
	m["rpc.failed_calls"] = float64(e.rpcErrs)
	mallocs := float64(after.Mallocs - before.Mallocs)
	m["go.allocs_per_kpkt"] = mallocs / float64(frames) * 1e3
	m["go.allocs_per_query"], m["go.alloc_bytes_per_query"] = 0, 0 // an op is a query only on the fleet workloads
	if w.daemons > 0 {
		m["go.allocs_per_query"] = mallocs / float64(len(res.ops))
		m["go.alloc_bytes_per_query"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(res.ops))
	}
	m["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6

	probes := make([]float64, len(h.probes))
	for i, p := range h.probes {
		probes[i] = float64(p) / 1e3
	}
	m["harness.probe_us_p50"] = median(probes)
	m["harness.machine_factor_p10"] = s.m10
	m["harness.machine_factor_p90"] = s.m90
	m["harness.round_iqr_pct"] = s.iqrPct
	m["harness.raw_pkts_per_s"] = s.rawRate
	m["harness.raw_op_p50_us"] = s.rawP50
	m["harness.op_p99_us"] = s.p99
	m["harness.trace_overhead_pct"] = s.overheadPct(w.daemons > 0)
	return m, note
}

// summary is the estimator side of a run: medians over rounds and
// percentiles over ops, after discarding the warm-up rounds.
type summary struct {
	warm, opSample             int
	rate, rawRate, iqrPct      float64
	p50, p90, p99, rawP50      float64
	m10, m90                   float64
	tracedRate, untracedRate   float64
	tracedOpP50, untracedOpP50 float64
}

func summarise(res *result) summary {
	n := len(res.rounds)
	s := summary{warm: (n*5 + 99) / 100} // the first 5 % of rounds, rounded up
	var rates, raw, ms, tr, un []float64
	for i := s.warm; i < n; i++ {
		r := res.rounds[i]
		rate := float64(r.frames) / r.normNs * 1e9
		rates = append(rates, rate)
		raw = append(raw, float64(r.frames)/r.raw.Seconds())
		ms = append(ms, float64(r.raw)/r.normNs)
		if r.traced {
			tr = append(tr, rate)
		} else {
			un = append(un, rate)
		}
	}
	s.rate, s.rawRate = median(rates), median(raw)
	s.iqrPct = 100 * (quantile(rates, 0.75) - quantile(rates, 0.25)) / s.rate
	s.m10, s.m90 = quantile(ms, 0.1), quantile(ms, 0.9)
	s.tracedRate, s.untracedRate = median(tr), median(un)

	// A failed op stays in the sample as its slowest value, so a failure
	// can never improve a percentile.
	var lat, rawLat, trLat, unLat []float64
	var slowest float64
	for _, op := range res.ops {
		if op.round >= s.warm && !op.failed {
			slowest = max(slowest, float64(op.raw)/op.m/1e3)
		}
	}
	for _, op := range res.ops {
		if op.round < s.warm {
			continue
		}
		us := float64(op.raw) / op.m / 1e3
		if op.failed {
			us = slowest
		}
		lat = append(lat, us)
		rawLat = append(rawLat, float64(op.raw)/1e3)
		if res.rounds[op.round].traced {
			trLat = append(trLat, us)
		} else {
			unLat = append(unLat, us)
		}
	}
	s.opSample = len(lat)
	s.p50, s.p90, s.p99 = quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)
	s.rawP50 = median(rawLat)
	s.tracedOpP50, s.untracedOpP50 = median(trLat), median(unLat)
	return s
}

// overheadPct compares the traced and the untraced rounds of a traced run:
// on the op median for a fleet workload, on the round rate otherwise.
func (s summary) overheadPct(fleet bool) float64 {
	if fleet {
		return 100 * (s.tracedOpP50 - s.untracedOpP50) / s.untracedOpP50
	}
	return 100 * (s.untracedRate - s.tracedRate) / s.untracedRate
}

// peakRSSMB is VmHWM of this process.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
