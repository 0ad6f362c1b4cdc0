// Command flymonctl is the interactive control-plane client for flymond:
// it defines measurement tasks, reconfigures them on the fly, and reads
// results back — the operator workflow of the paper's §1 example.
//
// Usage:
//
//	flymonctl [-addr host:9177] [-timeout 30s] [-retries 2] <command> [flags]
//
// -timeout bounds each control-channel round trip (a hung daemon fails
// with an i/o timeout instead of blocking forever); -retries is the
// automatic retry budget for read-only commands after a transport failure
// (mutations are never auto-retried: on a transport failure the daemon may
// or may not have applied them — re-check with `list`).
//
// Commands: add, rm, resize, split, load, list, estimate, cardinality,
// contains, distribution, resources, report, gen, replay, stats, query,
// trace, watch.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"flymon/internal/cli"
	"flymon/internal/controlplane"
	"flymon/internal/netwide"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/telemetry"
	"flymon/internal/tracing"
)

// logger is the CLI's leveled logger (stderr); -log-level tunes it.
var logger = telemetry.NewLogger("flymonctl", telemetry.LevelInfo, os.Stderr)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	addr := ":9177"
	opts := rpc.Options{}
	args := os.Args[1:]
	// Leading global flags, in any order, before the command word.
	// -version is valueless; every other global flag takes a value.
	need := func(args []string) {
		if len(args) < 2 {
			fatal(fmt.Errorf("%s: missing value", args[0]))
		}
	}
global:
	for len(args) >= 1 {
		switch args[0] {
		case "-version":
			fmt.Printf("flymonctl %s\n", telemetry.ReadBuildInfo())
			return
		case "-addr":
			need(args)
			addr, args = args[1], args[2:]
		case "-timeout":
			need(args)
			d, err := time.ParseDuration(args[1])
			if err != nil {
				fatal(fmt.Errorf("-timeout: %w", err))
			}
			opts.CallTimeout = d
			args = args[2:]
		case "-retries":
			need(args)
			n := 0
			if _, err := fmt.Sscanf(args[1], "%d", &n); err != nil {
				fatal(fmt.Errorf("-retries: %w", err))
			}
			if n == 0 {
				n = -1 // user asked for zero retries, not the default
			}
			opts.MaxRetries = n
			args = args[2:]
		case "-log-level":
			need(args)
			lvl, err := telemetry.ParseLogLevel(args[1])
			if err != nil {
				fatal(err)
			}
			logger.SetLevel(lvl)
			args = args[2:]
		default:
			break global
		}
	}
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cmd, args := args[0], args[1:]

	// query, trace and watch speak to MANY daemons (their own -addrs lists)
	// and tolerate dead ones — for query that is what the straggler report
	// is for — so they dispatch before the single-daemon dial below, which
	// would die on the first dead address.
	if cmd == "query" {
		os.Exit(cmdQuery(os.Stdout, addr, opts, args))
	}
	if cmd == "trace" {
		cmdTrace(addr, opts, args)
		return
	}
	if cmd == "watch" {
		cmdWatch(addr, opts, args)
		return
	}

	client, err := rpc.DialOptions(addr, opts)
	if err != nil {
		fatal(err)
	}
	defer client.Close()

	switch cmd {
	case "add":
		cmdAdd(client, args)
	case "rm":
		cmdRemove(client, args)
	case "resize":
		cmdResize(client, args)
	case "split":
		cmdSplit(client, args)
	case "load":
		cmdLoad(client, args)
	case "list":
		cmdList(client)
	case "estimate":
		cmdEstimate(client, args)
	case "cardinality":
		cmdCardinality(client, args)
	case "contains":
		cmdContains(client, args)
	case "distribution":
		cmdDistribution(client, args)
	case "resources":
		cmdResources(client)
	case "report":
		cmdReport(client)
	case "gen":
		cmdGen(client, args)
	case "replay":
		cmdReplay(client, args)
	case "stats":
		cmdStats(client, args)
	default:
		fmt.Fprintf(os.Stderr, "flymonctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flymonctl: %v\n", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: flymonctl [-addr host:9177] [-timeout 30s] [-retries 2] <command> [flags]

global flags:
  -addr       daemon control-channel address
  -timeout    per-call deadline (default 30s); a hung daemon errors instead of blocking
  -retries    retry budget for read-only commands after transport failures (default 2)
  -log-level  stderr log verbosity: debug, info, warn, error, off (default info)
  -version    print version and build info, then exit

commands:
  add          deploy a measurement task
               -name N -key srcip|dstip|ippair|5tuple|srcip/24|... -attr `+controlplane.EnumNames[controlplane.Attribute]()+`
               -param `+controlplane.EnumNames[controlplane.ParamKind]()+` -mem BUCKETS [-d N]
               [-threshold N] [-filter-src CIDR] [-filter-dst CIDR] [-prob P]
               [-alg `+controlplane.EnumNames[controlplane.Algorithm]()+`]
  rm           -id N                      remove a task
  resize       -id N -mem BUCKETS         reallocate a task's memory on the fly
  split        -id N                      split a task into two filter-disjoint subtasks
  load         -file PATH                 load a binary trace (trafficgen output) into the daemon
  list                                    list deployed tasks
  estimate     -id N -key SPEC -src IP -dst IP [-sport P -dport P -proto N]
  cardinality  -id N                      read a cardinality task
  contains     -id N -key SPEC -src IP ...  query an existence task
  distribution -id N                      read an MRAC task's size distribution
  resources                               free memory per CMU
  report                                  per-group occupancy (keys, rules, TCAM)
  gen          -flows N -packets N [-zipf S] [-seed N]   synthesize a workload
  replay       [-n N]                     push trace packets through the pipeline
  stats        [-metrics] [-events N]     daemon counters + telemetry report
               -metrics dumps Prometheus text; -events N prints the last N
               reconfiguration journal entries
  query        -addrs a:9177,b:9177 -name N [-epoch E] [-policy wait|skip|partial]
               [-wait 2s] [-op add|max|or|xor] [-arity K] [-trace]
               [-estimate -key SPEC -src IP -dst IP ...]
               epoch-coherent network-wide readout: every switch's epoch-E
               register snapshot (binary frames) streamed through the
               parallel sketch-merge tree. -epoch 0 pins the first healthy
               switch's latest completed epoch. The report separates
               stragglers (reachable, behind) from failures (unreachable);
               -estimate probes the merged rows for a flow key (CMS min);
               -trace prints the end-to-end span tree with its critical path
  trace        [-addrs a:9177,b:9177] [-n 5] [-op NAME]
               dump every daemon's span buffer, knit spans into per-operation
               trace trees, print the newest N with critical-path breakdowns
  watch        [-addrs a:9177,b:9177] [-interval 1s] [-count N] [-events 6]
               [-epoch-task N] [-tx 100ms] [-mult 3]
               live fleet dashboard: per-switch BFD-style liveness sessions
               ('*' marks a flap-damped one; a dead daemon is a down row),
               deployed tasks out of the fleet-wide union of task names,
               packet counters, drain/mutation latency percentiles, per-switch
               completed epoch ('!' marks a straggler), and the newest
               reconfiguration journal entries; redraws in place each
               interval, -count 1 prints one snapshot and exits
`)
}

func cmdAdd(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("add", flag.ExitOnError)
	name := fs.String("name", "", "task name")
	key := fs.String("key", "5tuple", "flow key spec")
	attr := fs.String("attr", "frequency", "attribute: "+controlplane.EnumNames[controlplane.Attribute]())
	param := fs.String("param", "count", "attribute parameter: "+controlplane.EnumNames[controlplane.ParamKind]())
	mem := fs.Int("mem", 16384, "memory buckets per row")
	d := fs.Int("d", 0, "rows (0 = algorithm default)")
	threshold := fs.Int("threshold", 0, "detection threshold")
	fsrc := fs.String("filter-src", "", "source prefix filter (CIDR)")
	fdst := fs.String("filter-dst", "", "destination prefix filter (CIDR)")
	prob := fs.Float64("prob", 0, "probabilistic execution (0 or 1 = always)")
	alg := fs.String("alg", "auto", "pin algorithm: "+controlplane.EnumNames[controlplane.Algorithm]())
	_ = fs.Parse(args)

	spec := controlplane.TaskSpec{Name: *name, MemBuckets: *mem, D: *d,
		Threshold: *threshold, Prob: *prob}
	var err error
	if spec.Key, err = cli.ParseKeySpec(*key); err != nil {
		fatal(err)
	}
	if spec.Filter.SrcPrefix, err = cli.ParseCIDR(*fsrc); err != nil {
		fatal(err)
	}
	if spec.Filter.DstPrefix, err = cli.ParseCIDR(*fdst); err != nil {
		fatal(err)
	}
	if spec.Attribute, err = controlplane.ParseEnum[controlplane.Attribute](*attr); err != nil {
		fatal(err)
	}
	// A parameter that is not one of the metadata words is a flow key.
	if kind, perr := controlplane.ParseEnum[controlplane.ParamKind](*param); perr == nil && kind != controlplane.ParamFlowKey {
		spec.Param.Kind = kind
	} else {
		ks, err := cli.ParseKeySpec(*param)
		if err != nil {
			fatal(err)
		}
		spec.Param = controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: ks}
	}
	if spec.Algorithm, err = controlplane.ParseEnum[controlplane.Algorithm](*alg); err != nil {
		fatal(err)
	}

	res, err := c.AddTask(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("task %d deployed: %s on groups %v, %d buckets/row (%d B), delay %v\n",
		res.ID, res.Algorithm, res.Groups, res.Buckets, res.MemoryBytes, res.Delay)
}

func cmdRemove(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("rm", flag.ExitOnError)
	id := fs.Int("id", 0, "task id")
	_ = fs.Parse(args)
	if err := c.RemoveTask(*id); err != nil {
		fatal(err)
	}
	fmt.Printf("task %d removed\n", *id)
}

func cmdResize(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("resize", flag.ExitOnError)
	id := fs.Int("id", 0, "task id")
	mem := fs.Int("mem", 0, "new buckets per row")
	_ = fs.Parse(args)
	res, err := c.ResizeTask(*id, *mem)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("task %d resized: %d buckets/row (%d B), delay %v\n",
		res.ID, res.Buckets, res.MemoryBytes, res.Delay)
}

func cmdSplit(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("split", flag.ExitOnError)
	id := fs.Int("id", 0, "task id")
	_ = fs.Parse(args)
	lo, hi, err := c.SplitTask(*id)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("task %d split into %d (%s) and %d (%s)\n", *id, lo.ID, lo.Name, hi.ID, hi.Name)
}

func cmdLoad(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	file := fs.String("file", "", "binary trace path on the daemon host")
	_ = fs.Parse(args)
	n, err := c.LoadTrace(*file)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d packets\n", n)
}

// cmdQuery runs an epoch-coherent network-wide readout without a resident
// fleet controller: dial every switch, hand the reachable ones to a
// RemoteFleet (which owns the fan-out, the straggler policy and the merge
// tree) and render its rows and QueryReport — a per-switch outcome table
// separating stragglers from failures — to w. It returns the exit code.
func cmdQuery(w io.Writer, defaultAddr string, opts rpc.Options, args []string) int {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	addrsFlag := fs.String("addrs", defaultAddr, "comma-separated daemon control-channel addresses")
	name := fs.String("name", "", "epoch task name")
	epochN := fs.Int("epoch", 0, "completed epoch to read (0 = first healthy switch's latest)")
	policyStr := fs.String("policy", "wait", "straggler policy: wait|skip|partial")
	waitBound := fs.Duration("wait", netwide.DefaultEpochWait, "straggler wait bound (wait/partial policies)")
	opStr := fs.String("op", "add", "merge op: add|max|or|xor")
	arity := fs.Int("arity", 0, "merge-tree fan-in (0 = default)")
	estimate := fs.Bool("estimate", false, "probe the merged rows for the key flags' flow (CMS min)")
	traceQ := fs.Bool("trace", false, "trace the query end-to-end and print the assembled span tree")
	p, keyStr := packetFromFlags(fs, args) // parses the flag set

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "flymonctl: %v\n", err)
		return 1
	}
	if *name == "" {
		return fail(fmt.Errorf("query: -name is required"))
	}
	policy, err := netwide.ParseStragglerPolicy(*policyStr)
	if err != nil {
		return fail(err)
	}
	op, err := netwide.ParseMergeOp(*opStr)
	if err != nil {
		return fail(err)
	}
	addrs := splitAddrs(*addrsFlag)
	if len(addrs) == 0 {
		return fail(fmt.Errorf("query: no addresses"))
	}

	// Tracing is opt-in per query: the CLI process holds the controller
	// half of the trace, the daemons record their halves, and the tree is
	// knit together from their trace_dump buffers after the query.
	var tr *tracing.Tracer
	if *traceQ {
		tr = tracing.New(0)
	}

	// Dial everything up front; a dead switch becomes a failure row, not a
	// command abort. fleetIdx maps an address to its index in the fleet of
	// reachable switches.
	var clients []*rpc.Client
	fleetIdx := make([]int, len(addrs))
	dialErr := make([]error, len(addrs))
	for i, a := range addrs {
		c, err := rpc.DialOptions(a, opts)
		if err != nil {
			dialErr[i] = err
			continue
		}
		defer c.Close()
		fleetIdx[i] = len(clients)
		clients = append(clients, c)
	}
	if len(clients) == 0 {
		return fail(fmt.Errorf("query: no reachable switch: %v", dialErr[0]))
	}

	// Pin the epoch: coherence means every switch answers for the SAME E,
	// so "latest" is resolved once, not per switch.
	pinned := *epochN
	if pinned <= 0 {
		res, err := clients[0].ReadEpoch(*name, 0)
		if err != nil {
			return fail(fmt.Errorf("query: resolving latest epoch: %w", err))
		}
		pinned = res.Epoch
	}

	// The fleet here is a visitor: it deployed nothing, so its mirror (and
	// with it the switch configuration) is never consulted — QueryEpochRows
	// reads an undeployed name straight from the switches.
	var stats telemetry.FleetStats
	fleet := netwide.NewRemoteFleetOptions(clients, controlplane.Config{}, netwide.FleetOptions{
		AllowPartial: true, MergeArity: *arity, Tracer: tr, Telemetry: &stats,
	})
	rows, report, qerr := fleet.QueryEpochRows(*name, pinned, netwide.EpochQuery{Policy: policy, Wait: *waitBound, Op: op})

	fmt.Fprintf(w, "epoch %d, op %s, policy %s: %d/%d switches contributed\n",
		pinned, op, policy, len(report.Contributed), len(addrs))
	for i, a := range addrs {
		o := "ok"
		if dialErr[i] != nil {
			o = fmt.Sprintf("failed: %v", dialErr[i])
		} else if have, ok := report.Stragglers[fleetIdx[i]]; ok {
			o = fmt.Sprintf("straggler: behind @ epoch %d", have)
		} else if msg, ok := report.Failed[fleetIdx[i]]; ok {
			o = "failed: " + msg
		}
		fmt.Fprintf(w, "  %-22s %s\n", a, o)
	}
	if qerr != nil {
		return fail(qerr)
	}
	buckets, nonzero := 0, 0
	for _, row := range rows {
		buckets += len(row)
		for _, v := range row {
			if v != 0 {
				nonzero++
			}
		}
	}
	fmt.Fprintf(w, "merged %d rows × %d buckets (%d nonzero), tree depth %d, %d merges\n",
		len(rows), buckets/max(len(rows), 1), nonzero, stats.MergeTree.LastDepth.Load(), stats.MergeTree.Merges.Load())

	if *estimate {
		spec, err := cli.ParseKeySpec(keyStr)
		if err != nil {
			return fail(err)
		}
		// No mirror: a contributing switch maps the key to register
		// indices itself, on the frozen task its snapshot was read from.
		var idx []uint32
		for _, j := range report.Contributed {
			var snap rpc.EpochRegistersResult
			if snap, err = clients[j].ReadEpoch(*name, pinned); err != nil {
				continue
			}
			if idx, err = clients[j].KeyIndices(snap.FrozenID, spec.Extract(p)); err == nil {
				break
			}
		}
		if idx == nil {
			return fail(fmt.Errorf("query: no contributing switch answered key_indices: %v", err))
		}
		min := ^uint32(0)
		for i, ix := range idx {
			if i >= len(rows) || int(ix) >= len(rows[i]) {
				return fail(fmt.Errorf("query: index %d out of range for merged row %d", ix, i))
			}
			if v := rows[i][ix]; v < min {
				min = v
			}
		}
		fmt.Fprintf(w, "estimate for %s @ epoch %d: %d (%d-of-%d lower bound)\n",
			spec, pinned, min, len(report.Contributed), len(addrs))
	}
	if *traceQ {
		// Knit the end-to-end tree: this process's spans plus every
		// reachable daemon's buffer. Only this query has its root here.
		trees, errs := fleet.CollectTrace(0)
		for j, err := range errs {
			logger.Warnf("trace: %s: %v", clients[j].Addr(), err)
		}
		fmt.Fprintln(w)
		for _, tree := range trees {
			if tree.Root != nil {
				tree.Render(w)
			}
		}
	}
	if policy == netwide.StragglerWait && len(report.Contributed) < len(addrs) {
		return 1 // a wait-policy caller asked for all-or-nothing
	}
	return 0
}

func cmdList(c *rpc.Client) {
	tasks, err := c.ListTasks()
	if err != nil {
		fatal(err)
	}
	if len(tasks) == 0 {
		fmt.Println("no tasks deployed")
		return
	}
	fmt.Printf("%-4s %-16s %-22s %-3s %-8s %-10s %s\n", "ID", "NAME", "ALGORITHM", "D", "GROUPS", "BUCKETS", "MEMORY")
	for _, t := range tasks {
		fmt.Printf("%-4d %-16s %-22s %-3d %-8v %-10d %dB\n",
			t.ID, t.Name, t.Algorithm, t.D, t.Groups, t.Buckets, t.MemoryBytes)
	}
}

func packetFromFlags(fs *flag.FlagSet, args []string) (*packet.Packet, string) {
	src := fs.String("src", "0.0.0.0", "source IP")
	dst := fs.String("dst", "0.0.0.0", "destination IP")
	sport := fs.Int("sport", 0, "source port")
	dport := fs.Int("dport", 0, "destination port")
	proto := fs.Int("proto", 6, "protocol")
	key := fs.String("key", "5tuple", "key spec the task uses")
	_ = fs.Parse(args)
	s, err := cli.ParseIPv4(*src)
	if err != nil {
		fatal(err)
	}
	d, err := cli.ParseIPv4(*dst)
	if err != nil {
		fatal(err)
	}
	return &packet.Packet{SrcIP: s, DstIP: d, SrcPort: uint16(*sport),
		DstPort: uint16(*dport), Proto: uint8(*proto)}, *key
}

func cmdEstimate(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	id := fs.Int("id", 0, "task id")
	p, keyStr := packetFromFlags(fs, args)
	spec, err := cli.ParseKeySpec(keyStr)
	if err != nil {
		fatal(err)
	}
	v, err := c.Estimate(*id, spec.Extract(p))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("task %d estimate for %s: %.2f\n", *id, spec, v)
}

func cmdCardinality(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("cardinality", flag.ExitOnError)
	id := fs.Int("id", 0, "task id")
	_ = fs.Parse(args)
	v, err := c.Cardinality(*id)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("task %d cardinality estimate: %.1f\n", *id, v)
}

func cmdContains(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("contains", flag.ExitOnError)
	id := fs.Int("id", 0, "task id")
	p, keyStr := packetFromFlags(fs, args)
	spec, err := cli.ParseKeySpec(keyStr)
	if err != nil {
		fatal(err)
	}
	v, err := c.Contains(*id, spec.Extract(p))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("task %d contains %s: %v\n", *id, spec, v)
}

func cmdDistribution(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("distribution", flag.ExitOnError)
	id := fs.Int("id", 0, "task id")
	top := fs.Int("top", 10, "sizes to print")
	_ = fs.Parse(args)
	res, err := c.Distribution(*id)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("task %d flow-size distribution (entropy %.3f bits):\n", *id, res.Entropy)
	for i, sz := range res.Sizes {
		if i >= *top {
			fmt.Printf("  ... %d more sizes\n", len(res.Sizes)-i)
			break
		}
		fmt.Printf("  size %-8d ≈ %.1f flows\n", sz, res.Counts[i])
	}
}

func cmdResources(c *rpc.Client) {
	res, err := c.Resources()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d tasks deployed; free buckets per CMU:\n", res.Tasks)
	for gi, cmus := range res.FreeBuckets {
		fmt.Printf("  group %d: %v\n", gi, cmus)
	}
}

func cmdReport(c *rpc.Client) {
	groups, err := c.ResourceReport()
	if err != nil {
		fatal(err)
	}
	for _, g := range groups {
		fmt.Printf("group %d: %d rules, %d TCAM entries, tasks %v\n",
			g.Group, g.Rules, g.TCAMEntries, g.Tasks)
		for i, k := range g.Keys {
			if k == "" {
				k = "<idle>"
			}
			fmt.Printf("  unit %d: %s\n", i, k)
		}
		fmt.Printf("  free buckets: %v\n", g.FreeBuckets)
	}
}

func cmdGen(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	flows := fs.Int("flows", 10000, "distinct flows")
	packets := fs.Int("packets", 500000, "packets")
	zipf := fs.Float64("zipf", 1.2, "Zipf skew")
	seed := fs.Int64("seed", 1, "seed")
	_ = fs.Parse(args)
	n, err := c.GenTrace(*flows, *packets, *zipf, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("generated %d packets\n", n)
}

func cmdReplay(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	n := fs.Int("n", 0, "packets to replay (0 = all)")
	_ = fs.Parse(args)
	done, err := c.Replay(*n)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replayed %d packets\n", done)
}

func cmdStats(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	metrics := fs.Bool("metrics", false, "dump the full telemetry report as Prometheus text")
	events := fs.Int("events", 0, "also print the last N reconfiguration journal events")
	_ = fs.Parse(args)
	s, err := c.Stats()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("packets processed: %d\ntrace loaded: %d packets\ntasks: %d\n",
		s.PacketsProcessed, s.TracePackets, s.Tasks)
	rep, err := c.Telemetry()
	if err != nil {
		fmt.Printf("telemetry: unavailable (%v)\n", err)
		return
	}
	if *metrics {
		telemetry.WriteMetricsReport(os.Stdout, rep)
		return
	}
	dp, cp := rep.DataPlane, rep.ControlPlane
	fmt.Printf("uptime: %v\n", time.Duration(rep.UptimeNs).Round(time.Second))
	fmt.Printf("stages: C=%d I=%d P=%d O=%d (recirculated %d)\n",
		dp.Stages.Compression, dp.Stages.Initialization, dp.Stages.Preparation,
		dp.Stages.Operation, dp.Recirculated)
	if len(dp.Rules) > 0 {
		fmt.Printf("%-6s %-4s %-5s %-12s %s\n", "GROUP", "CMU", "TASK", "OP", "HITS")
		for _, r := range dp.Rules {
			fmt.Printf("%-6d %-4d %-5d %-12s %d\n", r.Group, r.CMU, r.Task, r.Op, r.Hits)
		}
	}
	occ, buckets := 0, 0
	var clamps uint64
	for _, g := range dp.Registers {
		occ += g.Occupied
		buckets += g.Buckets
		clamps += g.Clamps
	}
	if buckets > 0 {
		fmt.Printf("registers: %d/%d buckets occupied (%.1f%%), %d clamp events\n",
			occ, buckets, 100*float64(occ)/float64(buckets), clamps)
	}
	fmt.Printf("snapshot version: %d; reconfigurations: %d (journal holds %d, dropped %d)\n",
		cp.SnapshotVersion, cp.EventsTotal, len(cp.Events), cp.EventsDropped)
	if n := cp.MutationLatency.Count; n > 0 {
		fmt.Printf("mutation latency: %d samples, mean %v\n",
			n, (time.Duration(cp.MutationLatency.SumNs) / time.Duration(n)).Round(time.Microsecond))
	}
	if *events > 0 {
		evs := cp.Events
		if len(evs) > *events {
			evs = evs[len(evs)-*events:]
		}
		for _, e := range evs {
			status := "ok"
			if !e.OK {
				status = "FAILED: " + e.Err
			}
			detail := e.Detail
			if detail != "" {
				detail = " " + detail
			}
			fmt.Printf("  #%d %s task=%d%s v%d→v%d %s %s\n",
				e.Seq, e.Kind, e.Task, detail, e.VersionBefore, e.VersionAfter,
				eventLatency(e), status)
		}
	}
}
