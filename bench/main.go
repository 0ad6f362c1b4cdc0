// Command bench is the repository's benchmark: probe-normalised,
// round-based ingest, churn and fleet workloads over the public functions
// the FlyMon binaries themselves use. README.md has the commands, the
// metric glossary and the reasons; NOISE.md has the measurements behind
// the probe and the run length.
//
//	go run -C bench . -workload ingest_steady            one untraced run
//	go run -C bench . -workload fleet_query -trace 1     per-layer metrics
//	go run -C bench .                                    every workload once
//	go run -C bench . -aa 3                              A/A: every workload three times
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// outDir holds the run directories, relative to the working directory
// (bench/ under `go run -C bench .`); bench/.gitignore and the root
// .gitignore name it.
const outDir = "out"

func main() {
	name := flag.String("workload", "", "workload to run in this process (empty: run each in a child process)")
	seed := flag.Int64("seed", 1, "drives trace generation, key sampling and the churn schedule")
	seconds := flag.Float64("seconds", refSeconds, "sizes the timed phase: rounds = workload rounds x seconds / 40")
	trace := flag.Int("trace", 0, "1 = traced run: spans, the layer lab and the per-layer metrics")
	aa := flag.Int("aa", 0, "run each workload this many times back to back and compare the runs against the bounds")
	keep := flag.Bool("keep", false, "keep the run directory (a traced run leaves spans.json there)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *aa < 0 {
		flag.Usage()
		os.Exit(2)
	}

	c := &cleaner{}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		if c.stopChild() {
			return // runChildren exits once the child has cleaned up and ended
		}
		c.run()
		os.Exit(130)
	}()

	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 5, out: outDir, keep: *keep}
	if *name == "" || *aa > 0 {
		os.Exit(runChildren(*name, max(*aa, 1), o, c))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep, err := runWorkload(w, o, c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	text, err := formatReport(w, o, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Print(text)
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// cleaner removes run directories and stops the running child, on normal
// exit and from the signal handler alike.
type cleaner struct {
	mu      sync.Mutex
	dirs    []string
	child   *exec.Cmd
	stopped bool // a signal asked the run to end
}

func (c *cleaner) add(dir string) {
	c.mu.Lock()
	c.dirs = append(c.dirs, dir)
	c.mu.Unlock()
}

func (c *cleaner) run() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.dirs {
		os.RemoveAll(d)
	}
	c.dirs = nil
}

// stopChild passes a termination signal on to the running child, which
// removes its own run directory, and reports whether there was one.
func (c *cleaner) stopChild() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
	if c.child == nil {
		return false
	}
	_ = c.child.Process.Signal(syscall.SIGTERM) // an error means it has already ended
	return true
}

// runChild starts cmd, waits for it and reports whether the run may go on.
func (c *cleaner) runChild(cmd *exec.Cmd) (goOn bool, err error) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return false, nil
	}
	if err = cmd.Start(); err == nil {
		c.child = cmd
	}
	c.mu.Unlock()
	if err == nil {
		err = cmd.Wait()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.child = nil
	return !c.stopped, err
}

// line is the result object a run prints last on standard output.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// formatReport renders a run: one line per fixed-work count and metric
// for the operator, then the result object the driver reads.
func formatReport(w *workload, o runOpts, rep report) (string, error) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d seconds %g trace %v\n", w.name, o.seed, o.seconds, o.trace)
	for _, n := range rep.notes {
		fmt.Fprintln(&b, n)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(&b, "FAILED:", f)
	}
	l := line{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]value)}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s has no value (%v)", d.name, v)
		}
		fmt.Fprintf(&b, "%-36s %16.4f %s\n", d.name, v, d.unit)
		l.Metrics[d.name] = value{v, d.unit}
	}
	fmt.Fprintf(&b, "ops_attempted %d ops_failed %d\n", rep.attempted, rep.failed)
	j, err := json.Marshal(l)
	if err != nil {
		return "", err
	}
	b.Write(j)
	b.WriteByte('\n')
	return b.String(), nil
}

// runChildren runs each workload (or the one named) n times, each run in
// a child process of its own so peak RSS and set-up are what a single run
// sees, and prints for every workload x end-to-end metric the values and
// their largest pairwise deviation against the bound. It returns the exit
// code: non-zero when a run failed or, with n > 1, a deviation exceeds
// its bound.
func runChildren(only string, n int, o runOpts, c *cleaner) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		vals := make(map[string][]float64)
		for i := 0; i < n; i++ {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
			cmd.Stderr = os.Stderr
			stdout := &strings.Builder{}
			cmd.Stdout = stdout
			goOn, err := c.runChild(cmd)
			if !goOn {
				return 130
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var l line
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &l); jerr != nil || err != nil || !l.Correct {
				fmt.Printf("%s run %d: FAILED (%v)\n%s\n", w.name, i+1, err, stdout)
				code = 1
				continue
			}
			for k, v := range l.Metrics {
				vals[k] = append(vals[k], v.Value)
			}
		}
		for _, d := range endToEnd {
			v := vals[d.name]
			if len(v) == 0 {
				continue
			}
			fmt.Printf("%-14s %-12s %-7s", w.name, d.name, d.unit)
			for _, x := range v {
				fmt.Printf(" %14.4f", x)
			}
			if n > 1 {
				s := append([]float64(nil), v...)
				sort.Float64s(s)
				dev := (s[len(s)-1] - s[0]) / s[0]
				verdict := "ok"
				if dev > d.bound {
					verdict, code = "EXCEEDS BOUND", 1
				}
				fmt.Printf("  maxdev %5.2f%%  bound %2.0f%%  %s", 100*dev, 100*d.bound, verdict)
			}
			fmt.Println()
		}
	}
	return code
}
