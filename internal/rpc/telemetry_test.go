package rpc

import (
	"fmt"
	"io"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"flymon/internal/controlplane"
	"flymon/internal/telemetry"
	"flymon/internal/tracing"
)

// startTelemetryServer wires one registry into a daemon the way flymond
// does: controller, server and the server's tracer all report into it. The
// client traces too, so requests carry span contexts.
func startTelemetryServer(t *testing.T) (*telemetry.Registry, *Client, *tracing.Tracer) {
	t.Helper()
	reg := telemetry.NewRegistry()
	ctrl := controlplane.NewController(controlplane.Config{Groups: 2, Buckets: 16384, BitWidth: 32, Telemetry: reg})
	t.Cleanup(ctrl.Close)
	srv := NewServer(ctrl, nil)
	srv.SetTelemetry(reg)
	tr := tracing.New(256)
	srv.SetTracer(tr)
	reg.AddFamilySource(tr)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cliTr := tracing.New(256)
	c, err := DialOptions(addr, Options{Tracer: cliTr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return reg, c, cliTr
}

// scrapeMetrics GETs the registry's /metrics.
func scrapeMetrics(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// familyNames returns the families a Prometheus text exposition declares.
func familyNames(text string) []string {
	var names []string
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			names = append(names, f[2])
		}
	}
	sort.Strings(names)
	return names
}

// sampleLine is the text-format grammar of one series: name, optional
// labels with escaped values, value.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:\\[\\"n]|[^\\"\n])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:\\[\\"n]|[^\\"\n])*")*\})?` +
	` (?:[-+]?[0-9.eE+-]+|\+Inf|NaN)$`)

// TestScrapeSurvivesPeerChosenMethods: the method name is text a peer
// chooses. Neither a method crafted to close the label and start a sample
// of its own nor a flood of junk names may change what /metrics declares:
// every series line parses, belongs to the family declared above it, and
// the server's endpoint set stays the methods it serves plus "unknown".
func TestScrapeSurvivesPeerChosenMethods(t *testing.T) {
	reg, c, _ := startTelemetryServer(t)
	const junk = 300
	forged := "x\"} 1\nflymon_forged_total 1\n#"
	for i := 0; i < junk; i++ {
		method := fmt.Sprintf("junk-%d", i)
		if i == 0 {
			method = forged
		}
		if err := c.call(method, nil, nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
			t.Fatalf("call %q: err = %v, want unknown method", method, err)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	body := scrapeMetrics(t, reg)
	family, typ := "", ""
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			family, typ = f[2], f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d does not parse as a sample: %q", i+1, line)
		}
		name := m[1]
		if typ == "histogram" {
			name = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		}
		if name != family {
			t.Fatalf("line %d is a %s sample under family %s: %q", i+1, m[1], family, line)
		}
	}

	var served []string
	for _, f := range reg.Report().Families {
		if f.Name != "flymon_rpc_requests_total" {
			continue
		}
		for _, s := range f.Samples {
			if s.Labels[1] == "server" {
				served = append(served, fmt.Sprintf("%s=%d", s.Labels[3], s.Value))
			}
		}
	}
	if got := strings.Join(served, " "); got != fmt.Sprintf("ping=1 unknown=%d", junk) {
		t.Fatalf("server endpoints = %s, want ping=1 unknown=%d", got, junk)
	}
}

// TestTelemetryRPCMatchesMetrics: `flymonctl stats -metrics` renders the
// report the telemetry RPC returns; it must declare exactly the families
// the same daemon's /metrics does, trace and build-info families included.
func TestTelemetryRPCMatchesMetrics(t *testing.T) {
	reg, c, cliTr := startTelemetryServer(t)
	root := cliTr.StartRoot("deploy")
	if _, err := c.AddTask(freqSpec("t"), root.Context()); err != nil {
		t.Fatal(err)
	}
	root.Finish(nil)

	rep, err := c.Telemetry()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := telemetry.WriteText(&b, rep.Families); err != nil {
		t.Fatal(err)
	}
	got, want := familyNames(b.String()), familyNames(scrapeMetrics(t, reg))
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("telemetry RPC families:\n%v\n/metrics families:\n%v", got, want)
	}
	for _, name := range []string{"flymon_build_info", "flymon_trace_spans_total", "flymon_trace_span_latency_seconds"} {
		if !slices.Contains(got, name) {
			t.Errorf("family %s missing from the telemetry RPC's report", name)
		}
	}
}
