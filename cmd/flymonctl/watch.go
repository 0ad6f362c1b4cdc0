package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"flymon/internal/netwide"
	"flymon/internal/rpc"
	"flymon/internal/telemetry"
	"flymon/internal/tracing"
)

// splitAddrs parses a comma-separated address list, dropping blanks.
func splitAddrs(addrsFlag string) []string {
	var addrs []string
	for _, a := range strings.Split(addrsFlag, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// cmdTrace collects every daemon's span buffer (the trace_dump RPC),
// assembles the spans into per-operation trace trees, and prints the
// newest N with their critical-path breakdowns. Spans from different
// daemons knit together by trace ID; controller-side spans appear when
// the operation ran in a process whose buffer is among the dumps (e.g.
// `flymonctl query -trace` prints its own end-to-end tree directly).
func cmdTrace(defaultAddr string, opts rpc.Options, args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	addrsFlag := fs.String("addrs", defaultAddr, "comma-separated daemon control-channel addresses")
	n := fs.Int("n", 5, "newest operations (trace trees) to print")
	opFilter := fs.String("op", "", "only print traces whose root operation has this name (deploy, epoch_rotate, ...)")
	_ = fs.Parse(args)
	addrs := splitAddrs(*addrsFlag)
	if len(addrs) == 0 {
		fatal(fmt.Errorf("trace: no addresses"))
	}

	var all []tracing.Span
	reached := 0
	for _, a := range addrs {
		c, err := rpc.DialOptions(a, opts)
		if err != nil {
			logger.Warnf("trace: %s: %v", a, err)
			continue
		}
		dump, err := c.TraceDump(0)
		c.Close()
		if err != nil {
			logger.Warnf("trace: %s: %v", a, err)
			continue
		}
		reached++
		if dump.Dropped > 0 {
			logger.Warnf("trace: %s: span buffer lapped, %d span(s) lost", a, dump.Dropped)
		}
		all = append(all, dump.Spans...)
	}
	if reached == 0 {
		fatal(fmt.Errorf("trace: no daemon reachable"))
	}
	trees := tracing.Assemble(all)
	printed := 0
	for _, tree := range trees {
		if *opFilter != "" {
			if tree.Root == nil || tree.Root.Span.Name != *opFilter {
				continue
			}
		}
		if printed >= *n {
			break
		}
		tree.Render(os.Stdout)
		printed++
	}
	if printed == 0 {
		fmt.Printf("no traces collected from %d daemon(s) — daemon-side spans exist only for traced operations\n", reached)
	}
}

// watchRow is one switch's scrape for a dashboard frame.
type watchRow struct {
	addr    string
	session string
	detect  time.Duration
	fails   int
	tasks   []string // deployed task names; nil = not scraped
	epoch   string
	packets string
	reconf  string
	drain   string // register-drain (query-serving) latency p50/p99
	mut     string // control-plane mutation latency p50/p99
}

// cmdWatch is the live fleet dashboard: BFD-style liveness sessions give
// per-switch health (a dead daemon is a down row, not a command failure),
// short-lived scrape connections add task counts, packet totals,
// query/mutation latency percentiles and (with -epoch-task) each switch's
// completed epoch, and the newest reconfiguration journal entries stream
// along the bottom. The screen redraws in place every interval until
// interrupted; -count 1 prints one snapshot and exits.
func cmdWatch(defaultAddr string, opts rpc.Options, args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	addrsFlag := fs.String("addrs", defaultAddr, "comma-separated daemon control-channel addresses")
	interval := fs.Duration("interval", time.Second, "refresh interval")
	events := fs.Int("events", 6, "reconfiguration journal entries to show")
	epochTask := fs.String("epoch-task", "", "epoch task whose per-switch completed epoch to show")
	tx := fs.Duration("tx", 100*time.Millisecond, "liveness hello tx interval")
	mult := fs.Int("mult", 3, "detection-time multiplier (detect = mult × tx)")
	count := fs.Int("count", 0, "frames to draw before exiting (0 = until interrupted)")
	_ = fs.Parse(args)
	addrs := splitAddrs(*addrsFlag)
	if len(addrs) == 0 {
		fatal(fmt.Errorf("watch: no addresses"))
	}
	if opts.CallTimeout == 0 {
		opts.CallTimeout = 2 * time.Second
	}
	opts.MaxRetries = -1 // sessions own failure handling; scrapes are best-effort

	m := netwide.NewLivenessManager(addrs, netwide.LivenessOptions{
		TxInterval: *tx,
		DetectMult: *mult,
	})
	m.Start()
	defer m.Stop()
	// Let the three-way handshakes complete plus one detect interval so the
	// first frame already classifies a dead daemon as down.
	time.Sleep(time.Duration(*mult+2) * *tx)

	for frame := 1; ; frame++ {
		fmt.Print("\x1b[H\x1b[2J") // home + clear: redraw in place
		drawWatchFrame(m, opts, *events, *epochTask)
		if *count > 0 && frame >= *count {
			return
		}
		time.Sleep(*interval)
	}
}

// drawWatchFrame scrapes every Up switch and prints one dashboard frame.
func drawWatchFrame(m *netwide.LivenessManager, opts rpc.Options, events int, epochTask string) {
	snaps := m.Snapshot()
	rows := make([]watchRow, len(snaps))
	var journal []telemetry.Event
	up := 0
	for i, s := range snaps {
		r := watchRow{addr: s.Addr, session: s.State.String(), detect: s.DetectTime,
			fails: s.ConsecutiveFailures, epoch: "-", packets: "-",
			reconf: "-", drain: "-", mut: "-"}
		if s.Damped {
			r.session += "*"
		}
		if s.State == netwide.SessionUp {
			up++
			scrapeSwitch(s.Addr, opts, epochTask, &r, &journal)
		}
		rows[i] = r
	}
	// An offline CLI has no controller's desired set; the union of task names
	// across the reachable switches approximates it.
	union := make(map[string]bool)
	for _, r := range rows {
		for _, name := range r.tasks {
			union[name] = true
		}
	}

	fmt.Printf("flymon watch · %s · %d/%d switches up\n\n",
		time.Now().Format("15:04:05"), up, len(snaps))
	fmt.Printf("%-22s %-8s %-7s %-5s %-7s %-8s %-9s %-7s %-17s %s\n",
		"ADDR", "SESSION", "DETECT", "FAILS", "TASKS", "EPOCH", "PACKETS", "RECONF", "DRAIN p50/p99", "MUTATION p50/p99")
	for _, r := range rows {
		tasks := "?"
		if r.tasks != nil {
			tasks = fmt.Sprintf("%d/%d", len(r.tasks), len(union))
		}
		fmt.Printf("%-22s %-8s %-7s %-5d %-7s %-8s %-9s %-7s %-17s %s\n",
			r.addr, r.session, r.detect, r.fails, tasks, r.epoch, r.packets, r.reconf, r.drain, r.mut)
	}
	for _, r := range rows {
		if r.tasks != nil && len(r.tasks) < len(union) {
			fmt.Printf("fleet: switch %s is missing %d task(s)\n",
				r.addr, len(union)-len(r.tasks))
		}
	}
	if len(journal) > 0 {
		fmt.Printf("\nrecent reconfigurations:\n")
		if len(journal) > events {
			journal = journal[len(journal)-events:]
		}
		for _, e := range journal {
			status := "ok"
			if !e.OK {
				status = "FAILED: " + e.Err
			}
			detail := e.Detail
			if detail != "" {
				detail = " " + detail
			}
			fmt.Printf("  #%-4d %-14s task=%-3d%s %s %s\n",
				e.Seq, e.Kind, e.Task, detail, eventLatency(e), status)
		}
	}
	fmt.Printf("\n(ctrl-c to exit)\n")
}

// eventLatency renders a journal event's latency and, for a mutation that
// waited out in-flight readers before reclaiming or freezing memory, how
// much of it was that wait.
func eventLatency(e telemetry.Event) string {
	lat := time.Duration(e.LatencyNs).Round(time.Microsecond).String()
	if e.GraceNs > 0 {
		lat += fmt.Sprintf(" (grace %v)", time.Duration(e.GraceNs).Round(time.Microsecond))
	}
	return lat
}

// scrapeSwitch fills one dashboard row over a short-lived connection.
// Every fetch is best-effort: a failure leaves the placeholder dashes.
func scrapeSwitch(addr string, opts rpc.Options, epochTask string, r *watchRow, journal *[]telemetry.Event) {
	c, err := rpc.DialOptions(addr, opts)
	if err != nil {
		return
	}
	defer c.Close()
	if tasks, err := c.ListTasks(); err == nil {
		r.tasks = make([]string, len(tasks))
		for i, t := range tasks {
			r.tasks[i] = t.Name
		}
	}
	if st, err := c.Stats(); err == nil {
		r.packets = fmt.Sprintf("%d", st.PacketsProcessed)
	}
	if rep, err := c.Telemetry(); err == nil {
		cp := rep.ControlPlane
		r.reconf = fmt.Sprintf("%d", cp.EventsTotal)
		r.drain = fmtPctls(cp.DrainLatency)
		r.mut = fmtPctls(cp.MutationLatency)
		// The journal shown is the first Up switch's: every daemon records
		// the same fleet-driven mutations, so one tail is representative.
		if len(*journal) == 0 && len(cp.Events) > 0 {
			*journal = append(*journal, cp.Events...)
			sort.Slice(*journal, func(i, j int) bool { return (*journal)[i].Seq < (*journal)[j].Seq })
		}
	}
	if epochTask != "" {
		var behind *rpc.Error
		if res, err := c.ReadEpoch(epochTask, 0); err == nil {
			r.epoch = fmt.Sprintf("%d", res.Epoch)
		} else if errors.As(err, &behind) && behind.Code == rpc.CodeEpochUnavailable {
			r.epoch = fmt.Sprintf("%d!", behind.Have) // behind: completed epoch with a straggler mark
		}
	}
}

// histPctl reads quantile q out of a log2-bucket latency histogram,
// reporting the matched bucket's upper bound (conservative by at most 2×,
// which is all a dashboard needs).
func histPctl(h telemetry.HistogramSnapshot, q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	target := uint64(q * float64(h.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			return time.Duration(telemetry.BucketUpperNs(i))
		}
	}
	return time.Duration(telemetry.BucketUpperNs(telemetry.HistogramBuckets - 1))
}

// fmtPctls renders a histogram's p50/p99 pair compactly ("4µs/33µs").
func fmtPctls(h telemetry.HistogramSnapshot) string {
	if h.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%s/%s", fmtShortDur(histPctl(h, 0.50)), fmtShortDur(histPctl(h, 0.99)))
}

func fmtShortDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%dms", d.Milliseconds())
	case d >= time.Microsecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
