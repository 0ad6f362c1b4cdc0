package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// scrape fetches a path from the admin handler and returns body + status.
func scrape(t *testing.T, h http.Handler, path string) (string, *http.Response) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return string(body), resp
}

func TestMetricsEndpointWireFormat(t *testing.T) {
	r := NewRegistry()
	r.SetVersion(7)
	r.Rule(RuleKey{Group: 1, CMU: 2, Task: 3}, RuleMeta{Op: "CondADD"}).Add(0, 41)
	r.MutationLatency.Observe(3 * time.Millisecond)
	r.RPCServer.Endpoint("add_task").Requests.Add(5)
	r.Journal.Record(Event{Kind: "deploy", Task: 3, OK: true})
	r.Fleet.MergeTree.EpochCacheHits.Add(63)
	r.Fleet.MergeTree.EpochCacheMisses.Add(1)

	body, resp := scrape(t, r.Handler(), "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}

	// Gauge: value line preceded by HELP/TYPE in the right order.
	gaugeIdx := strings.Index(body, "# TYPE flymon_snapshot_version gauge")
	valIdx := strings.Index(body, "flymon_snapshot_version 7")
	if gaugeIdx < 0 || valIdx < 0 || valIdx < gaugeIdx {
		t.Fatalf("gauge wire format broken:\n%s", body)
	}

	// Counter with labels.
	if !strings.Contains(body, `flymon_rule_hits_total{group="1",cmu="2",task="3",op="CondADD"} 41`) {
		t.Fatalf("labeled counter missing:\n%s", body)
	}
	if !strings.Contains(body, `flymon_rpc_requests_total{side="server",method="add_task"} 5`) {
		t.Fatalf("rpc counter missing:\n%s", body)
	}
	if !strings.Contains(body, "flymon_reconfig_events_total 1") {
		t.Fatalf("journal counter missing:\n%s", body)
	}
	if !strings.Contains(body, `flymon_fleet_epoch_cache_total{result="hit"} 63`) ||
		!strings.Contains(body, `flymon_fleet_epoch_cache_total{result="miss"} 1`) {
		t.Fatalf("epoch artifact store counters missing:\n%s", body)
	}

	// Histogram: TYPE histogram, cumulative buckets ending at +Inf, then
	// _sum and _count, with bucket counts that add up.
	if !strings.Contains(body, "# TYPE flymon_reconfig_latency_seconds histogram") {
		t.Fatalf("histogram TYPE missing:\n%s", body)
	}
	if !strings.Contains(body, `flymon_reconfig_latency_seconds_bucket{le="+Inf"} 1`) {
		t.Fatalf("+Inf bucket missing:\n%s", body)
	}
	if !strings.Contains(body, "flymon_reconfig_latency_seconds_count 1") {
		t.Fatalf("histogram count missing:\n%s", body)
	}
	// A 3ms observation lands in the 2^22 ns = 4.194304e-3 s bucket; the
	// cumulative count at that le must already be 1.
	if !strings.Contains(body, `flymon_reconfig_latency_seconds_bucket{le="0.004194304"} 1`) {
		t.Fatalf("cumulative bucket missing:\n%s", body)
	}
}

func TestMetricsEndpointExternalWriters(t *testing.T) {
	r := NewRegistry()
	r.AddMetricsWriter(WriteBuildInfoMetric)
	r.AddMetricsWriter(func(w io.Writer) { io.WriteString(w, "flymon_custom_total 9\n") })

	body, _ := scrape(t, r.Handler(), "/metrics")
	if !strings.Contains(body, "flymon_build_info{version=") {
		t.Fatalf("build info metric missing:\n%s", body)
	}
	if !strings.Contains(body, "flymon_custom_total 9") {
		t.Fatalf("external writer output missing:\n%s", body)
	}
}

func TestDebugEventsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Journal.Record(Event{Kind: "deploy", Task: 1, Detail: "cms", OK: true})
	r.Journal.Record(Event{Kind: "remove", Task: 1, OK: false, Err: "gone"})
	r.Journal.Record(Event{Kind: "remove", Task: 2, OK: true, LatencyNs: 900_000, GraceNs: 850_000})

	body, resp := scrape(t, r.Handler(), "/debug/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var got struct {
		Total   uint64  `json:"total"`
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("decoding: %v\n%s", err, body)
	}
	if got.Total != 3 || got.Dropped != 0 || len(got.Events) != 3 {
		t.Fatalf("events payload: total=%d dropped=%d n=%d", got.Total, got.Dropped, len(got.Events))
	}
	// A mutation that waited for in-flight readers says for how long; one
	// that did not omits the field.
	if got.Events[2].GraceNs != 850_000 || strings.Count(body, `"grace_ns"`) != 1 {
		t.Fatalf("grace_ns: event 2 has %d, payload:\n%s", got.Events[2].GraceNs, body)
	}
	if got.Events[0].Kind != "deploy" || got.Events[1].Err != "gone" {
		t.Fatalf("event content lost: %+v", got.Events)
	}
	// Sequence numbers are assigned by the journal, monotonically.
	if got.Events[1].Seq <= got.Events[0].Seq {
		t.Fatalf("sequence not monotonic: %d then %d", got.Events[0].Seq, got.Events[1].Seq)
	}
}

func TestDebugEventsReportsDrops(t *testing.T) {
	r := &Registry{Journal: NewJournal(4), rules: map[RuleKey]*RuleCounter{}, start: time.Now()}
	for i := 0; i < 10; i++ {
		r.Journal.Record(Event{Kind: "deploy", Task: i})
	}
	body, _ := scrape(t, r.Handler(), "/debug/events")
	var got struct {
		Total   uint64 `json:"total"`
		Dropped uint64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if got.Total != 10 || got.Dropped != 6 {
		t.Fatalf("drop accounting: total=%d dropped=%d, want 10/6", got.Total, got.Dropped)
	}
	// The same drop counter must surface on /metrics (satellite: bounded
	// rings never discard silently).
	mbody, _ := scrape(t, r.Handler(), "/metrics")
	if !strings.Contains(mbody, "flymon_reconfig_events_dropped_total 6") {
		t.Fatalf("journal drops missing from /metrics:\n%s", mbody)
	}
}

func TestAdminIndexAnd404(t *testing.T) {
	r := NewRegistry()
	body, resp := scrape(t, r.Handler(), "/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", resp.StatusCode, body)
	}
	_, resp = scrape(t, r.Handler(), "/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", resp.StatusCode)
	}
}
