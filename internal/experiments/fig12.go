package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"flymon/internal/controlplane"
	"flymon/internal/metrics"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/sim"
	"flymon/internal/sketch"
	"flymon/internal/trace"
)

// Fig12a reproduces Figure 12a: server-side throughput under nine
// reconfiguration events for the bare data plane, FlyMon (runtime rules),
// and the static baseline (P4 reload). The table summarizes each line; the
// Series field carries the raw time series for plotting.
type Fig12aResult struct {
	Table  *Table
	Series map[string][]sim.Sample
}

// Fig12a runs the forwarding-impact experiment.
func Fig12a(seed int64) *Fig12aResult {
	cfg := sim.ForwardingConfig{Seed: seed}
	res := &Fig12aResult{Series: make(map[string][]sim.Sample)}
	t := &Table{
		Title:  "Fig. 12a — Impact of reconfiguration on traffic forwarding (9 events / 100 s)",
		Header: []string{"Deployment", "Mean Gbps", "Outage seconds (<10 Gbps)", "Events causing dips"},
	}
	for _, kind := range []sim.DeploymentKind{sim.Bare, sim.FlyMon, sim.Static} {
		series := sim.SimulateForwarding(kind, cfg)
		res.Series[kind.String()] = series
		outage := sim.OutageSeconds(series, 10)
		dips := 0
		if kind == sim.Static {
			// Deletion events are skipped by the paper's optimization.
			for _, ev := range eventsOf(cfg) {
				if ev.Kind != sim.EventRemoveTask {
					dips++
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			kind.String(), f2(sim.MeanGbps(series)), f2(outage), itoa(dips),
		})
	}
	t.Notes = append(t.Notes,
		"FlyMon and Bare are statistically identical: rule installation never touches forwarding",
		"Static interrupts traffic 4–8 s per critical event (P4 reload)")
	res.Table = t
	return res
}

func eventsOf(cfg sim.ForwardingConfig) []sim.Event {
	cfg.Defaults()
	return cfg.Events
}

// Fig12b reproduces Figure 12b: the ARE of a frequency task (task A)
// across 20 epochs while (i) a traffic spike runs from epoch 6 to 15,
// (ii) another task B is inserted at epoch 3 and removed at epoch 10 in
// the same CMU Group, and (iii) task A's memory is grown at epoch 6 and
// shrunk at epoch 16. The static baseline keeps its compile-time memory.
func Fig12b(scale Scale, seed int64) *Table {
	flows, packets := scale.workload()
	flows /= 2
	packets /= 2
	spikeFlows := flows * 3
	tr := trace.Generate(trace.Config{Flows: flows, Packets: packets, Seed: seed})
	tr.InjectSpike(spikeFlows, 3, 0.3, 0.75, seed+1) // epochs 6..15 of 20
	epochs := tr.Epochs(20)

	// Task A measures the SrcIP-MSB=0 half of the traffic; task B (added
	// and removed mid-experiment) measures the other half, so both can
	// share the group's CMUs without traffic intersection.
	filterA := packet.Filter{SrcPrefix: packet.Prefix{Value: 0, Bits: 1}}
	filterB := packet.Filter{SrcPrefix: packet.Prefix{Value: 0x80000000, Bits: 1}}

	smallBuckets := 2048
	bigBuckets := 16384

	ctrl := controlplane.NewController(controlplane.Config{Groups: 1, Buckets: 65536, BitWidth: 32})
	defer ctrl.Close()
	taskA, err := ctrl.AddTask(controlplane.TaskSpec{
		Name: "taskA", Filter: filterA, Key: packet.KeyFiveTuple,
		Attribute: controlplane.AttrFrequency, MemBuckets: smallBuckets, D: 3,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: fig12b task A: %v", err))
	}

	// Static baseline: same geometry, fixed at compile time.
	static := sketch.NewCMS(packet.KeyFiveTuple, 3, smallBuckets)

	t := &Table{
		Title:  "Fig. 12b — Task-A ARE across epochs under reconfiguration (spike epochs 6–15)",
		Header: []string{"Epoch", "Flows(A)", "FlyMon ARE", "Static ARE", "Event"},
	}

	var taskBID int
	for e, ep := range epochs {
		event := ""
		switch e {
		case 3:
			b, err := ctrl.AddTask(controlplane.TaskSpec{
				Name: "taskB", Filter: filterB, Key: packet.KeyDstIP,
				Attribute: controlplane.AttrFrequency, MemBuckets: smallBuckets, D: 3,
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: fig12b task B: %v", err))
			}
			taskBID = b.ID
			event = "insert task B"
		case 6:
			if _, err := ctrl.ResizeTask(taskA.ID, bigBuckets); err != nil {
				panic(fmt.Sprintf("experiments: fig12b grow: %v", err))
			}
			event = "grow task A memory"
		case 10:
			if err := ctrl.RemoveTask(taskBID); err != nil {
				panic(fmt.Sprintf("experiments: fig12b remove B: %v", err))
			}
			event = "remove task B"
		case 16:
			if _, err := ctrl.ResizeTask(taskA.ID, smallBuckets); err != nil {
				panic(fmt.Sprintf("experiments: fig12b shrink: %v", err))
			}
			event = "shrink task A memory"
		}

		// Fresh measurement window. The epoch replays through the frame
		// engine on the controller's pool (frequency counting commutes, so
		// any pool width gives the same registers); the baselines only read
		// their own state, so they can consume the epoch afterwards.
		_ = ctrl.ResetTaskCounters(taskA.ID)
		static.Reset()
		exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
		ctrl.ReplayTrace(mmtrace.FromPackets(ep.Packets))
		for i := range ep.Packets {
			p := &ep.Packets[i]
			if filterA.Matches(p) {
				static.AddPacket(p)
				exact.AddPacket(p)
			}
		}

		flyEst := make(map[packet.CanonicalKey]uint64, exact.Flows())
		statEst := make(map[packet.CanonicalKey]uint64, exact.Flows())
		for k := range exact.Counts() {
			v, err := ctrl.EstimateKey(taskA.ID, k)
			if err != nil {
				panic(fmt.Sprintf("experiments: fig12b estimate: %v", err))
			}
			flyEst[k] = uint64(v)
			statEst[k] = uint64(static.EstimateKey(k))
		}
		t.Rows = append(t.Rows, []string{
			itoa(e), itoa(exact.Flows()),
			f3(metrics.ARE(exact.Counts(), flyEst)),
			f3(metrics.ARE(exact.Counts(), statEst)),
			event,
		})
	}
	t.Notes = append(t.Notes,
		"task insertion/removal in the same CMU Group leaves task A's accuracy untouched",
		"FlyMon's on-the-fly memory growth absorbs the spike; the static deployment's error explodes")
	return t
}

// WriteSeries dumps the Fig. 12a throughput time series as
// whitespace-separated .dat files (one per deployment kind) in dir, ready
// for gnuplot/matplotlib regeneration of the figure.
func (r *Fig12aResult) WriteSeries(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: creating %s: %w", dir, err)
	}
	for kind, series := range r.Series {
		var b strings.Builder
		b.WriteString("# seconds gbps\n")
		for _, s := range series {
			fmt.Fprintf(&b, "%.2f %.3f\n", s.AtSecond, s.Gbps)
		}
		path := filepath.Join(dir, "fig12a_"+strings.ToLower(kind)+".dat")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return fmt.Errorf("experiments: writing %s: %w", path, err)
		}
	}
	return nil
}
