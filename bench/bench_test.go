package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"flymon/internal/netwide"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the part of /BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestContract holds BENCHMARK.json and the program to the same names,
// units, directions and bounds.
func TestContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		pw := findWorkload(w.Name)
		if pw == nil {
			t.Errorf("BENCHMARK.json names workload %q, the program has none", w.Name)
		} else if pw.why != w.Why {
			t.Errorf("workload %s: why differs between BENCHMARK.json and workloads.go", w.Name)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)

	seen := make(map[string]bool)
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("bad or repeated workload name %q", w.name)
		}
		seen[w.name] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("bad or repeated metric name %q", d.name)
		}
		seen[d.name] = true
	}
}

// TestSmoke runs every workload at 1/50 of its timed phase on a shrunken
// trace, untraced and traced, and requires every metric of the mode
// exactly once with its unit, no failed op, and an empty scratch
// directory afterwards.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		w.frames = max(w.frames/32, 1024)
		w.flows = 5000
		w.queries /= 4
		for _, trace := range []bool{false, true} {
			o := runOpts{seed: 7, seconds: refSeconds / 50.0, trace: trace, setups: 1, out: out}
			rep, err := runWorkload(&w, o, &cleaner{})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w.name, trace, rep.failed, rep.attempted, rep.failures)
			}
			text, err := formatReport(&w, o, rep)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var l line
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", w.name, trace, err)
			}
			if len(l.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result object has %d metrics, want %d", w.name, trace, len(l.Metrics), len(defs))
			}
			for _, d := range defs {
				n := 0
				for _, ln := range lines[:len(lines)-1] {
					if f := strings.Fields(ln); len(f) == 3 && f[0] == d.name && f[2] == d.unit {
						n++
					}
				}
				if n != 1 || l.Metrics[d.name].Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s printed %d times, result object has unit %q", w.name, trace, d.name, n, l.Metrics[d.name].Unit)
				}
			}
		}
	}
	if left, _ := os.ReadDir(out); len(left) != 0 {
		t.Errorf("scratch directory not empty after the runs: %v", left)
	}
}

// TestCorruptedEstimateIsCounted proves a wrong fleet answer cannot pass:
// the checker rejects it, the op is counted as failed, and its latency
// enters the sample as the slowest value.
func TestCorruptedEstimateIsCounted(t *testing.T) {
	full := netwide.QueryReport{Contributed: []int{0, 1}}
	const truth, n = 100, 32768 // slack = ceil(e/16384 * 32768) = 6
	for _, est := range []uint64{truth, truth + 6} {
		if err := checkEstimate(est, truth, n, full, 2); err != nil {
			t.Errorf("estimate %d rejected: %v", est, err)
		}
	}
	var res result
	res.rounds = make([]roundRec, minRounds) // round 0 is warm-up; the ops below belong to round 1
	for i := range res.rounds {
		res.rounds[i] = roundRec{frames: 1, raw: time.Millisecond, normNs: 1e6}
	}
	corrupted := []error{
		checkEstimate(truth-1, truth, n, full, 2), // undercount: a switch's rows went missing
		checkEstimate(truth+7, truth, n, full, 2), // overcount beyond the sketch's bound
		checkEstimate(truth, truth, n, netwide.QueryReport{Contributed: []int{0}, Failed: map[int]string{1: "down"}}, 2),
	}
	for i, err := range corrupted {
		if err == nil {
			t.Fatalf("corrupted answer %d passed the check", i)
		}
		res.op(1, time.Microsecond, 1, err) // fastest op of the run, but wrong
	}
	res.op(1, 5*time.Microsecond, 1, nil)
	res.op(1, 9*time.Microsecond, 1, nil)
	if res.attempted != 5 || res.failed != 3 {
		t.Errorf("attempted %d failed %d, want 5 and 3", res.attempted, res.failed)
	}
	if s := summarise(&res); s.p50 != 9 {
		t.Errorf("op p50 = %v µs: failed ops must count as the slowest value (9 µs)", s.p50)
	}
}

// TestProbeWorkIsFixed: every pass digests the same keys and makes the
// same 3 x probeKeys increments.
func TestProbeWorkIsFixed(t *testing.T) {
	p := newProbe()
	total := func() (s uint64) {
		for _, v := range p.arr {
			s += uint64(v)
		}
		return
	}
	p.pass()
	sum, before := p.sum, total()
	p.pass()
	if p.sum != sum || sum == 0 {
		t.Errorf("probe digests differ between passes: %#x then %#x", sum, p.sum)
	}
	if got := total() - before; got != 3*probeKeys {
		t.Errorf("probe made %d increments, want %d", got, 3*probeKeys)
	}
}
