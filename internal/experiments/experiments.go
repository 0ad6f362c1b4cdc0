// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): each Fig*/Table* function runs the corresponding
// experiment on the simulated data plane and returns a renderable table.
// The cmd/flymon-bench binary is a thin wrapper over this package. Every
// experiment feeds its packets to the data plane the way flymond -replay
// and the repo benchmark do: encoded as an mmtrace.Trace and drained by a
// worker pool through the frame engine (Controller.ReplayTrace, or replay
// below for a bare pipeline).
package experiments

import (
	"fmt"
	"io"
	"strings"

	"flymon/internal/core"
	"flymon/internal/mmtrace"
	"flymon/internal/trace"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale selects experiment workload sizes: Full approximates the paper's
// trace scale; Small keeps unit benchmarks fast.
type Scale int

// Workload scales.
const (
	Small Scale = iota
	Full
)

// workload returns (flows, packets) for the scale.
func (s Scale) workload() (int, int) {
	if s == Full {
		return 60_000, 2_000_000
	}
	return 6_000, 150_000
}

// heavyThreshold returns the heavy-hitter threshold matched to the scale
// (the paper uses 1024 on a ~9M-packet trace; smaller workloads need a
// proportionally smaller threshold to keep a meaningful heavy set).
func (s Scale) heavyThreshold() int {
	if s == Full {
		return 1024
	}
	return 128
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }

// groups32 builds a pipeline of n groups with 32-bit registers of the given
// size (the accuracy experiments' configuration).
func groups32(n, buckets int) []*core.Group {
	gs := make([]*core.Group, n)
	for i := range gs {
		gs[i] = core.NewGroup(core.GroupConfig{ID: i, Buckets: buckets, BitWidth: 32})
	}
	return gs
}

// replay pushes every packet of tr through pl on the frame engine: one
// snapshot compilation, the packets encoded as an in-memory frame trace,
// and a one-worker pool draining it. One worker keeps the packets in trace
// order, which the bus-chained and recirculated figures depend on;
// probabilistic rules draw from that worker's own rng stream.
func replay(pl *core.Pipeline, tr *trace.Trace) {
	snap := pl.Compile()
	pool := core.NewWorkerPool(1, false)
	defer pool.Close()
	pool.ReplayTrace(func() *core.Snapshot { return snap }, mmtrace.FromPackets(tr.Packets), nil)
}

// baseTrace generates the shared Zipf workload for a scale and seed.
func baseTrace(s Scale, seed int64) *trace.Trace {
	flows, packets := s.workload()
	return trace.Generate(trace.Config{Flows: flows, Packets: packets, Seed: seed})
}

// flowUniverse extracts candidate keys and a membership universe from
// ground-truth counts.
func flowUniverse[K comparable](counts map[K]uint64) ([]K, map[K]bool) {
	cands := make([]K, 0, len(counts))
	universe := make(map[K]bool, len(counts))
	for k := range counts {
		cands = append(cands, k)
		universe[k] = true
	}
	return cands, universe
}
