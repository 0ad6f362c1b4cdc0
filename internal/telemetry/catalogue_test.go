package telemetry_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"flymon/internal/telemetry"
	"flymon/internal/tracing"
)

// fullDataPlane stands in for the controller: rules come from the
// registry's counters, packets and register gauges are fixed.
type fullDataPlane struct{ reg *telemetry.Registry }

func (f fullDataPlane) TelemetryDataPlane() telemetry.DataPlane {
	dp := f.reg.FoldDataPlane(telemetry.LiveSample{})
	dp.Packets, dp.Recirculated, dp.ShardedRules, dp.FallbackRules = 1000, 7, 2, 1
	dp.Registers = []telemetry.RegisterGauge{{Group: 0, CMU: 0, Buckets: 1024, BitWidth: 32, Occupied: 17, Clamps: 2, Accesses: 3000}}
	return dp
}

type fullReplay struct{}

func (fullReplay) TelemetryReplay() telemetry.ReplayReport {
	return telemetry.ReplayReport{Packets: 123}
}

// populatedRegistry has a sample in every family a daemon can expose:
// rules, registers, replay, both RPC sides, fleet sessions, every histogram
// (each merge level included), lane drains, tracer spans and build info.
func populatedRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.SetSource(fullDataPlane{reg})
	reg.Rule(telemetry.RuleKey{Group: 0, CMU: 0, Task: 1}, telemetry.RuleMeta{Op: "CondADD"}).Add(0, 41)
	reg.SetReplaySource(fullReplay{})
	reg.Journal.Record(telemetry.Event{Kind: "deploy", Task: 1, OK: true})
	reg.MutationLatency.Observe(3 * time.Millisecond)
	reg.DrainLatency.Observe(5 * time.Microsecond)
	reg.RecordDrain(12)
	for _, side := range []*telemetry.RPCStats{&reg.RPCClient, &reg.RPCServer} {
		side.Endpoint("add_task").Requests.Add(1)
	}
	reg.Fleet.SetSession(telemetry.SessionGauge{Switch: 0, Addr: "sw1:9177", State: "up"})
	reg.Fleet.DetectionTime.Observe(60 * time.Millisecond)
	mt := &reg.Fleet.MergeTree
	mt.MergeLatency.Observe(40 * time.Microsecond)
	for l := 0; l < telemetry.MergeLevels; l++ {
		mt.ObserveLevel(l, time.Microsecond)
	}
	mt.StragglerWait.Observe(2 * time.Millisecond)
	tr := tracing.New(16)
	tr.StartRoot("deploy").Finish(nil)
	reg.AddFamilySource(tr)
	return reg
}

// TestMetricCatalogue pins every metric family — name, type, label keys,
// help — to testdata/catalogue.txt, so adding, renaming or relabelling a
// metric is a reviewed diff of that file. On a mismatch the test prints the
// catalogue the code declares now; review it and copy it over the file.
func TestMetricCatalogue(t *testing.T) {
	var lines []string
	for _, f := range populatedRegistry().Report().Families {
		keys := map[string]bool{}
		for _, s := range f.Samples {
			for i := 0; i < len(s.Labels); i += 2 {
				keys[s.Labels[i]] = true
			}
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		lines = append(lines, fmt.Sprintf("%s %s {%s} %s", f.Name, f.Type, strings.Join(sorted, ","), f.Help))
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile("testdata/catalogue.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("metric catalogue differs from testdata/catalogue.txt; the code declares:\n%s", got)
	}
}
