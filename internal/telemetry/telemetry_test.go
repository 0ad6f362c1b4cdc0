package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterStripedFold(t *testing.T) {
	var c Counter
	// Writes land on whatever stripe the worker owns (mod CounterStripes);
	// the fold must see every stripe, including ones past the modulus.
	for stripe := uint32(0); stripe < 3*CounterStripes; stripe++ {
		c.Add(stripe, uint64(stripe))
	}
	var want uint64
	for s := uint32(0); s < 3*CounterStripes; s++ {
		want += uint64(s)
	}
	if got := c.Load(); got != want {
		t.Fatalf("Load() = %d, want %d", got, want)
	}
	c.Inc(7)
	if got := c.Load(); got != want+1 {
		t.Fatalf("Load() after Inc = %d, want %d", got, want+1)
	}
}

func TestCounterConcurrentExact(t *testing.T) {
	var c Counter
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(stripe uint32) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc(stripe)
			}
		}(uint32(w))
	}
	wg.Wait()
	if got := c.Load(); got != workers*perWorker {
		t.Fatalf("Load() = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{1 * time.Nanosecond, 0}, // 2^0 upper bound
		{2 * time.Nanosecond, 1}, // exactly a power of two lands on its own bucket
		{3 * time.Nanosecond, 2}, // ceil log2
		{1024 * time.Nanosecond, 10},
		{1025 * time.Nanosecond, 11},
		{time.Hour, HistogramBuckets - 1}, // clamped to the top bucket
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	snap := h.Snapshot()
	if snap.Count != uint64(len(cases)) {
		t.Fatalf("Count = %d, want %d", snap.Count, len(cases))
	}
	for _, c := range cases {
		if snap.Buckets[c.bucket] == 0 {
			t.Errorf("observe(%v): bucket %d empty, want a sample (upper bound %d ns)",
				c.d, c.bucket, BucketUpperNs(c.bucket))
		}
	}
	// A bucket's upper bound must actually bound its samples.
	if got := BucketUpperNs(10); got != 1024 {
		t.Errorf("BucketUpperNs(10) = %d, want 1024", got)
	}
}

func TestJournalBoundedWrapAndOrder(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 6; i++ {
		j.Record(Event{Kind: "deploy", Task: i})
	}
	if j.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (bounded ring)", j.Len())
	}
	if j.Total() != 6 {
		t.Fatalf("Total = %d, want 6", j.Total())
	}
	if j.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", j.Dropped())
	}
	evs := j.Events()
	if len(evs) != 4 {
		t.Fatalf("Events() returned %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(i + 2); e.Seq != want {
			t.Errorf("event %d has seq %d, want %d (oldest-first, gap-free)", i, e.Seq, want)
		}
		if e.Task != i+2 {
			t.Errorf("event %d carries task %d, want %d", i, e.Task, i+2)
		}
		if i > 0 && e.AtNs < evs[i-1].AtNs {
			t.Errorf("event %d timestamp %d precedes predecessor %d (monotonic order broken)", i, e.AtNs, evs[i-1].AtNs)
		}
	}
}

func TestJournalPartialFill(t *testing.T) {
	j := NewJournal(8)
	j.Record(Event{Kind: "deploy"})
	j.Record(Event{Kind: "remove"})
	evs := j.Events()
	if len(evs) != 2 || evs[0].Kind != "deploy" || evs[1].Kind != "remove" {
		t.Fatalf("Events() = %+v, want the two records in order", evs)
	}
	if j.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0 before the ring is full", j.Dropped())
	}
}

func TestRPCStatsSnapshotSorted(t *testing.T) {
	var s, idle RPCStats
	s.Endpoint("stats").Requests.Add(3)
	s.Endpoint("add_task").Requests.Add(1)
	s.Endpoint("add_task").Failures.Add(1)
	s.Breaker.Open.Add(2)
	var c catalogue
	collectRPC(&c, &s, &idle)
	fams := map[string][]Sample{}
	for _, f := range c {
		fams[f.Name] = f.Samples
	}
	reqs := fams["flymon_rpc_requests_total"]
	if len(reqs) != 2 || reqs[0].Labels[3] != "add_task" || reqs[1].Labels[3] != "stats" {
		t.Fatalf("request series = %+v, want add_task then stats (sorted)", reqs)
	}
	fails := fams["flymon_rpc_failures_total"]
	breaker := fams["flymon_rpc_breaker_transitions_total"]
	if fails[0].Value != 1 || reqs[1].Value != 3 || breaker[0].Labels[3] != "open" || breaker[0].Value != 2 {
		t.Fatalf("counter values lost in families: requests %+v, failures %+v, breaker %+v", reqs, fails, breaker)
	}
}

func TestRegistryDropTask(t *testing.T) {
	r := NewRegistry()
	r.Rule(RuleKey{Group: 0, CMU: 0, Task: 1}, RuleMeta{Op: "CondADD"})
	r.Rule(RuleKey{Group: 0, CMU: 1, Task: 1}, RuleMeta{Op: "CondADD"})
	r.Rule(RuleKey{Group: 1, CMU: 0, Task: 2}, RuleMeta{Op: "MAX"})
	r.DropTask(1)
	dp := r.FoldDataPlane(LiveSample{})
	if len(dp.Rules) != 1 || dp.Rules[0].Task != 2 {
		t.Fatalf("after DropTask(1): rules = %+v, want only task 2", dp.Rules)
	}
}

// staticDataPlane is a DataPlaneSource with fixed packet and register
// readings over the registry's folded rule counters.
type staticDataPlane struct {
	reg       *Registry
	packets   uint64
	registers []RegisterGauge
}

func (s staticDataPlane) TelemetryDataPlane() DataPlane {
	dp := s.reg.FoldDataPlane(LiveSample{})
	dp.Packets, dp.Registers = s.packets, s.registers
	return dp
}

func TestWriteMetricsReport(t *testing.T) {
	r := NewRegistry()
	rc := r.Rule(RuleKey{Group: 2, CMU: 1, Task: 7}, RuleMeta{Op: "CondADD"})
	rc.Add(0, 41)
	rc.Settle(1)
	r.SetVersion(3)
	r.MutationLatency.Observe(800 * time.Nanosecond)
	r.Journal.Record(Event{Kind: "deploy", Task: 7, OK: true})
	r.SetSource(staticDataPlane{r, 42, []RegisterGauge{{Group: 0, CMU: 0, Buckets: 64, Occupied: 3, Clamps: 2, Accesses: 9}}})
	r.RPCServer.Endpoint("stats").Requests.Add(5)
	r.RPCServer.Endpoint("add_task").Requests.Add(1)
	r.RPCServer.Endpoint("add_task").Failures.Add(1)
	r.RPCServer.Breaker.Open.Add(2)

	var b strings.Builder
	if err := WriteText(&b, r.Report().Families); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"flymon_packets_total 42",
		`flymon_rule_hits_total{group="2",cmu="1",task="7",op="CondADD"} 42`,
		`flymon_register_occupied_buckets{group="0",cmu="0"} 3`,
		`flymon_register_clamps_total{group="0",cmu="0"} 2`,
		"flymon_snapshot_version 3",
		"flymon_reconfig_events_total 1",
		"flymon_reconfig_latency_seconds_count 1",
		`flymon_rpc_requests_total{side="server",method="stats"} 5`,
		`flymon_rpc_failures_total{side="server",method="add_task"} 1`,
		`flymon_rpc_breaker_transitions_total{side="server",to="open"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Prometheus text format: each family declared exactly once.
	if n := strings.Count(out, "# TYPE flymon_rpc_requests_total"); n != 1 {
		t.Errorf("flymon_rpc_requests_total declared %d times, want exactly 1", n)
	}
	// Endpoints render sorted by method, whatever order they were created in.
	if a, s := strings.Index(out, `{side="server",method="add_task"}`), strings.Index(out, `{side="server",method="stats"}`); a < 0 || s < a {
		t.Errorf("endpoints not sorted by method (add_task at %d, stats at %d)", a, s)
	}
}
