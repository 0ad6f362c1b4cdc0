package tracing

import (
	"sort"

	"flymon/internal/telemetry"
)

// Families returns the tracer's metric families: total and dropped span
// counters plus one span-latency histogram series per operation name.
// Attached to a registry (telemetry.Registry.AddFamilySource), they join
// every scrape of it — /metrics and the telemetry RPC alike. A nil tracer
// has none, so a daemon without tracing exposes no trace series.
func (t *Tracer) Families() []telemetry.Family {
	if t == nil {
		return nil
	}
	total, dropped := t.buf.counts()
	fams := []telemetry.Family{
		{Name: "flymon_trace_spans_total", Type: "counter", Help: "Control-plane spans recorded by the tracer.",
			Samples: []telemetry.Sample{{Value: total}}},
		{Name: "flymon_trace_dropped_total", Type: "counter", Help: "Spans overwritten by the bounded span buffer.",
			Samples: []telemetry.Sample{{Value: dropped}}},
	}

	t.mu.Lock()
	ops := make([]string, 0, len(t.hists))
	for op := range t.hists {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	spans := make([]telemetry.Sample, len(ops))
	for i, op := range ops {
		h := t.hists[op].Snapshot()
		spans[i] = telemetry.Sample{Labels: []string{"op", op}, Hist: &h}
	}
	t.mu.Unlock()
	return append(fams, telemetry.Family{Name: "flymon_trace_span_latency_seconds", Type: "histogram",
		Help: "Span latency by operation name.", Samples: spans})
}
