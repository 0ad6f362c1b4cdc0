// Command flymon-bench regenerates the tables and figures of the FlyMon
// paper's evaluation (§5) on the simulated RMT data plane.
//
// Usage:
//
//	flymon-bench [-scale small|full] [-seed N] [-workers N] [-sharded] [experiment ...]
//
// With no experiment arguments it runs everything. Experiments: fig2,
// table3, fig11, fig12a, fig12b, fig13a, fig13b, fig13c, fig14a, fig14b,
// fig14c, fig14d, fig14e, fig14f, fig14g, appendixe, multitasking,
// throughput, ablations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"flymon/internal/experiments"
	"flymon/internal/telemetry"
)

func main() {
	scaleFlag := flag.String("scale", "small", "workload scale: small or full")
	seed := flag.Int64("seed", 42, "workload seed")
	workers := flag.Int("workers", 0, "cap of the throughput experiment's pool-width sweep: each row builds a controller with Config.Workers = 1, 2, 4, … up to this (0 = GOMAXPROCS)")
	sharded := flag.Bool("sharded", false, "throughput experiment uses sharded register lanes (per-worker plain stores) instead of shared CAS")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array instead of text tables")
	seriesDir := flag.String("series-dir", "", "also write fig12a's raw time series as .dat files into this directory")
	version := flag.Bool("version", false, "print version and build info, then exit")
	flag.Usage = usage
	flag.Parse()

	if *version {
		fmt.Printf("flymon-bench %s\n", telemetry.ReadBuildInfo())
		return
	}

	var scale experiments.Scale
	switch strings.ToLower(*scaleFlag) {
	case "small":
		scale = experiments.Small
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "flymon-bench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	runners := map[string]func() []*experiments.Table{
		"fig2":   func() []*experiments.Table { return []*experiments.Table{experiments.Fig2()} },
		"table3": func() []*experiments.Table { return []*experiments.Table{experiments.Table3()} },
		"fig11":  func() []*experiments.Table { return []*experiments.Table{experiments.Fig11()} },
		"fig12a": func() []*experiments.Table {
			res := experiments.Fig12a(*seed)
			if *seriesDir != "" {
				if err := res.WriteSeries(*seriesDir); err != nil {
					fmt.Fprintf(os.Stderr, "flymon-bench: %v\n", err)
					os.Exit(1)
				}
			}
			return []*experiments.Table{res.Table}
		},
		"fig12b":       func() []*experiments.Table { return []*experiments.Table{experiments.Fig12b(scale, *seed)} },
		"fig13a":       func() []*experiments.Table { return []*experiments.Table{experiments.Fig13a()} },
		"fig13b":       func() []*experiments.Table { return []*experiments.Table{experiments.Fig13b()} },
		"fig13c":       func() []*experiments.Table { return []*experiments.Table{experiments.Fig13c()} },
		"fig14a":       func() []*experiments.Table { return []*experiments.Table{experiments.Fig14a(scale, *seed)} },
		"fig14b":       func() []*experiments.Table { return []*experiments.Table{experiments.Fig14b(scale, *seed)} },
		"fig14c":       func() []*experiments.Table { return []*experiments.Table{experiments.Fig14c(scale, *seed)} },
		"fig14d":       func() []*experiments.Table { return []*experiments.Table{experiments.Fig14d(scale, *seed)} },
		"fig14e":       func() []*experiments.Table { return []*experiments.Table{experiments.Fig14e(scale, *seed)} },
		"fig14f":       func() []*experiments.Table { return []*experiments.Table{experiments.Fig14f(scale, *seed)} },
		"fig14g":       func() []*experiments.Table { return []*experiments.Table{experiments.Fig14g(scale, *seed)} },
		"appendixe":    func() []*experiments.Table { return []*experiments.Table{experiments.AppendixE(scale, *seed)} },
		"multitasking": func() []*experiments.Table { return []*experiments.Table{experiments.Multitasking(scale, *seed)} },
		"throughput": func() []*experiments.Table {
			return []*experiments.Table{experiments.Throughput(scale, *seed, *workers, *sharded)}
		},
		"ablations": func() []*experiments.Table {
			return []*experiments.Table{
				experiments.AblationSubParts(scale, *seed),
				experiments.AblationTranslation(scale, *seed),
				experiments.AblationMemoryModes(),
				experiments.AblationXORKeys(scale, *seed),
			}
		},
	}

	names := flag.Args()
	if len(names) == 0 {
		names = make([]string, 0, len(runners))
		for n := range runners {
			names = append(names, n)
		}
		sort.Strings(names)
	}

	type jsonTable struct {
		Experiment string     `json:"experiment"`
		Title      string     `json:"title"`
		Header     []string   `json:"header"`
		Rows       [][]string `json:"rows"`
		Notes      []string   `json:"notes,omitempty"`
		ElapsedMs  int64      `json:"elapsed_ms"`
	}
	var jsonTables []jsonTable

	for _, name := range names {
		run, ok := runners[strings.ToLower(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "flymon-bench: unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		start := time.Now()
		tables := run()
		elapsed := time.Since(start)
		if *jsonOut {
			for _, tbl := range tables {
				jsonTables = append(jsonTables, jsonTable{
					Experiment: name, Title: tbl.Title, Header: tbl.Header,
					Rows: tbl.Rows, Notes: tbl.Notes,
					ElapsedMs: elapsed.Milliseconds(),
				})
			}
			continue
		}
		for _, tbl := range tables {
			tbl.Render(os.Stdout)
		}
		fmt.Printf("  [%s completed in %v]\n\n", name, elapsed.Round(time.Millisecond))
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonTables); err != nil {
			fmt.Fprintf(os.Stderr, "flymon-bench: encoding JSON: %v\n", err)
			os.Exit(1)
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: flymon-bench [-scale small|full] [-seed N] [-workers N] [-sharded] [experiment ...]

experiments:
  fig2     resource footprint of statically deployed sketches
  table3   built-in algorithms: CMU-Group usage and deployment delay
  fig11    address-translation overhead vs partitions
  fig12a   reconfiguration impact on traffic forwarding
  fig12b   accuracy under reconfiguration and traffic spike
  fig13a   CMU-Group overhead on switch.p4 baseline
  fig13b   cross-stacking utilization vs MAU stages
  fig13c   scalability to candidate key size
  fig14a   heavy-hitter detection F1 vs memory
  fig14b   heavy hitters under probabilistic execution
  fig14c   DDoS-victim detection F1 vs memory
  fig14d   flow-cardinality RE vs memory
  fig14e   flow-entropy RE vs memory
  fig14f   max inter-arrival-time ARE vs memory
  fig14g   existence-check false positives vs memory
  appendixe  recirculation splicing: capacity vs bandwidth overhead
  multitasking  96 isolated tasks on one CMU Group (§5.1)
  throughput  frame-engine packet rate vs pool width, Workers=1 as the
              per-core baseline (-workers caps the sweep; -sharded switches
              the register state from shared atomics to per-worker
              plain-store lanes)
  ablations  design-choice ablations (sub-parts, translation, memory modes, XOR keys)
`)
}
