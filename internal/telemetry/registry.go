package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// RuleKey identifies one installed rule by its physical placement: pipeline
// group, CMU within the group, and the owning task. The same task can own
// rules in several CMUs (a D-row sketch) and a CMU can host rules of many
// tasks, so all three coordinates are needed.
type RuleKey struct {
	Group int `json:"group"`
	CMU   int `json:"cmu"`
	Task  int `json:"task"`
}

// RuleMeta is what the compiler knew about the rule when it last installed
// it — enough for a scrape to label the counter without reaching back into
// the pipeline.
type RuleMeta struct {
	Op      string `json:"op"`      // stateful operation name (CondADD, MAX, ...)
	Prep    bool   `json:"prep"`    // has a preparation-stage transform
	Spliced bool   `json:"spliced"` // lives in a recirculation-fed group
	Sharded bool   `json:"sharded"` // routed to per-worker register lanes
	Derived bool   `json:"derived"` // hits derived from the snapshot packet counter
}

// RuleCounter is the durable hit counter for one rule. It survives snapshot
// recompiles: the compiler re-attaches the same counter (by RuleKey) to each
// new snapshot, so counts accumulate across reconfigurations for as long as
// the task lives.
//
// Two write paths feed it. Rules that need per-execution counting add into
// the striped Counter (via context-local accumulators flushed in batches).
// Rules the compiler proved execute for *every* (recirculated) packet —
// first in their CMU program, match-all, not probability-gated — skip
// per-execution work entirely; their hits are settled in bulk from the
// snapshot's packet counter when the snapshot retires (Settle).
type RuleCounter struct {
	Key  RuleKey  `json:"key"`
	Meta RuleMeta `json:"meta"`

	hits    Counter
	settled atomic.Uint64
}

// Add records n live hits on the given stripe.
func (rc *RuleCounter) Add(stripe uint32, n uint64) { rc.hits.Add(stripe, n) }

// Settle folds n derived hits (from a retiring snapshot's packet counter)
// into the durable total.
func (rc *RuleCounter) Settle(n uint64) {
	if n != 0 {
		rc.settled.Add(n)
	}
}

// Total returns the rule's accumulated hits: striped live counts plus
// settled derived counts.
func (rc *RuleCounter) Total() uint64 { return rc.hits.Load() + rc.settled.Load() }

// LiveSample is the not-yet-settled contribution of the currently published
// snapshot, read without quiescing the data plane: its packet counters plus
// the derived-rule lists they stand in for. The fold adds Packets to every
// counter in Derived and Recirculated to every counter in DerivedSpliced.
type LiveSample struct {
	Packets        uint64
	Recirculated   uint64
	Digests        uint64 // compression-stage digests implied by the counts
	Derived        []*RuleCounter
	DerivedSpliced []*RuleCounter
}

// DataPlaneSource is implemented by the controller: it quiesces what must be
// quiesced (draining register lanes, settling retired snapshots) and folds
// the data-plane section of a Report. The Registry calls it at scrape time
// when one is attached; without a source the Registry reports settled
// counters only.
type DataPlaneSource interface {
	TelemetryDataPlane() DataPlane
}

// RuleStat is one rule's folded counter in a report.
type RuleStat struct {
	RuleKey
	Op      string `json:"op"`
	Prep    bool   `json:"prep,omitempty"`
	Spliced bool   `json:"spliced,omitempty"`
	Sharded bool   `json:"sharded,omitempty"`
	Hits    uint64 `json:"hits"`
}

// RegisterGauge is one CMU register's occupancy/saturation gauge set.
type RegisterGauge struct {
	Group    int    `json:"group"`
	CMU      int    `json:"cmu"`
	Buckets  int    `json:"buckets"`
	BitWidth int    `json:"bit_width"`
	Occupied int    `json:"occupied"` // non-zero buckets at scrape time
	Clamps   uint64 `json:"clamps"`   // CondADD saturation clamp events
	Accesses uint64 `json:"accesses"` // stateful operations applied
	Lanes    int    `json:"lanes"`    // sharded write lanes (0 = shared CAS)
}

// StageStats counts activity per CMU stage: Compression digests computed,
// Initialization-stage rule executions, Preparation-stage transforms run,
// and stateful Operations committed (initializations minus prep drops).
type StageStats struct {
	Compression    uint64 `json:"compression"`
	Initialization uint64 `json:"initialization"`
	Preparation    uint64 `json:"preparation"`
	Operation      uint64 `json:"operation"`
}

// DataPlane is the data-plane section of a Report.
type DataPlane struct {
	Packets       uint64          `json:"packets"`
	Recirculated  uint64          `json:"recirculated"`
	Stages        StageStats      `json:"stages"`
	Rules         []RuleStat      `json:"rules,omitempty"`
	Registers     []RegisterGauge `json:"registers,omitempty"`
	ShardedRules  int             `json:"sharded_rules"`
	FallbackRules int             `json:"fallback_rules"`

	// PacketOrderFrames counts the packets the frame engine ran under a
	// snapshot that is not frame-vectorised: one whose sampled rules or
	// spliced groups take a packet-order pass beside the column stage. Over
	// Packets it is the share of traffic that met such a pass.
	PacketOrderFrames uint64 `json:"packet_order_frames"`
}

// collect declares the data-plane families.
func (dp *DataPlane) collect(c *catalogue) {
	c.counter("flymon_packets_total", "Packets processed by the data plane.", sample(dp.Packets))
	c.counter("flymon_recirculated_total", "Packets recirculated into spliced groups.", sample(dp.Recirculated))
	c.counter("flymon_packet_order_frames_total", "Frames the frame engine ran beside a packet-order pass (sampled rules or spliced groups).", sample(dp.PacketOrderFrames))
	c.counter("flymon_stage_activity_total", "Per-stage CMU activity (C/I/P/O).",
		sample(dp.Stages.Compression, "stage", "compression"),
		sample(dp.Stages.Initialization, "stage", "initialization"),
		sample(dp.Stages.Preparation, "stage", "preparation"),
		sample(dp.Stages.Operation, "stage", "operation"))
	rules := make([]Sample, len(dp.Rules))
	for i, rs := range dp.Rules {
		rules[i] = sample(rs.Hits, "group", itoa(rs.Group), "cmu", itoa(rs.CMU), "task", itoa(rs.Task), "op", rs.Op)
	}
	c.counter("flymon_rule_hits_total", "Rule executions per installed CMU rule.", rules...)
	for _, f := range registerFamilies {
		regs := make([]Sample, len(dp.Registers))
		for i, g := range dp.Registers {
			regs[i] = sample(f.value(g), "group", itoa(g.Group), "cmu", itoa(g.CMU))
		}
		c.add(f.typ, f.name, f.help, regs)
	}
	c.gauge("flymon_sharded_rules", "Rules routed to per-worker register lanes.", sample(uint64(dp.ShardedRules)))
	c.gauge("flymon_fallback_rules", "Rules pinned to the shared-CAS path.", sample(uint64(dp.FallbackRules)))
}

// registerFamilies declares one family per register gauge, with a series
// per CMU register.
var registerFamilies = [...]struct {
	typ, name, help string
	value           func(RegisterGauge) uint64
}{
	{"gauge", "flymon_register_buckets", "Configured buckets per CMU register.",
		func(g RegisterGauge) uint64 { return uint64(g.Buckets) }},
	{"gauge", "flymon_register_occupied_buckets", "Non-zero buckets per CMU register.",
		func(g RegisterGauge) uint64 { return uint64(g.Occupied) }},
	{"counter", "flymon_register_clamps_total", "CondADD saturation clamp events per CMU register.",
		func(g RegisterGauge) uint64 { return g.Clamps }},
	{"counter", "flymon_register_accesses_total", "Stateful operations applied per CMU register.",
		func(g RegisterGauge) uint64 { return g.Accesses }},
}

// ControlPlane is the control-plane section of a Report.
type ControlPlane struct {
	SnapshotVersion uint64            `json:"snapshot_version"`
	Events          []Event           `json:"events,omitempty"`
	EventsTotal     uint64            `json:"events_total"`
	EventsDropped   uint64            `json:"events_dropped"`
	MutationLatency HistogramSnapshot `json:"mutation_latency"`
	DrainLatency    HistogramSnapshot `json:"drain_latency"`
}

// collect declares the control-plane families.
func (cp *ControlPlane) collect(c *catalogue) {
	c.gauge("flymon_snapshot_version", "Monotonic version of the published pipeline snapshot.", sample(cp.SnapshotVersion))
	c.counter("flymon_reconfig_events_total", "Reconfiguration events ever journaled.", sample(cp.EventsTotal))
	c.counter("flymon_reconfig_events_dropped_total", "Journal entries evicted by the bounded ring.", sample(cp.EventsDropped))
	c.histogram("flymon_reconfig_latency_seconds", "Latency of control-plane mutations (deploy/remove/resize/split/rekey).",
		histSample(cp.MutationLatency))
	c.histogram("flymon_drain_latency_seconds", "Latency of register-lane drains on the query path.",
		histSample(cp.DrainLatency))
}

// Report is a full scrape of the registry, serializable over the control
// channel (flymonctl stats fetches one per switch). DataPlane and
// ControlPlane stay typed for readers that compute with them; Families is
// every metric family of the scrape, those two sections included — what
// /metrics renders and `flymonctl stats -metrics` prints (WriteText).
type Report struct {
	UptimeNs     int64        `json:"uptime_ns"`
	DataPlane    DataPlane    `json:"data_plane"`
	ControlPlane ControlPlane `json:"control_plane"`
	Families     []Family     `json:"families"`
}

// Registry is the root object every layer hangs its instruments off. One
// registry serves one daemon (or one test); it is passed through
// controlplane.Config, rpc server/client options, and netwide FleetOptions.
// The zero value is not usable — call NewRegistry.
type Registry struct {
	start time.Time

	mu    sync.Mutex
	rules map[RuleKey]*RuleCounter
	order []RuleKey

	digests   atomic.Uint64 // settled compression-stage digest count
	prepDrops Counter       // preparation-stage drops (coupon miss, interval gate)
	version   atomic.Uint64 // current snapshot version, mirrored by the controller

	Journal         *Journal
	MutationLatency Histogram
	DrainLatency    Histogram

	RPCClient RPCStats
	RPCServer RPCStats
	Fleet     FleetStats

	// Lane drains (RecordDrain): passes that folded lane buckets, passes
	// that found every lane clean, and the lane buckets folded.
	drains, cleanDrains, drainedBuckets atomic.Uint64

	srcMu   sync.Mutex
	source  DataPlaneSource
	sources []FamilySource

	replay replayHook
}

// AddFamilySource attaches a plane the registry does not know about (the
// tracer): its families join every Report after the registry's own.
func (r *Registry) AddFamilySource(s FamilySource) {
	r.srcMu.Lock()
	r.sources = append(r.sources, s)
	r.srcMu.Unlock()
}

// NewRegistry builds an empty registry with a DefaultJournalSize journal.
func NewRegistry() *Registry {
	return &Registry{
		start:   time.Now(),
		rules:   make(map[RuleKey]*RuleCounter),
		Journal: NewJournal(DefaultJournalSize),
	}
}

// Rule returns the durable counter for key, creating it on first install and
// refreshing its metadata (op/prep/sharded can change when a task is
// reconfigured in place).
func (r *Registry) Rule(key RuleKey, meta RuleMeta) *RuleCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	rc := r.rules[key]
	if rc == nil {
		rc = &RuleCounter{Key: key}
		r.rules[key] = rc
		r.order = append(r.order, key)
	}
	rc.Meta = meta
	return rc
}

// DropTask forgets every rule counter the task owns, across all groups and
// CMUs. Hits recorded so far disappear from subsequent reports: per-task
// counters do not outlive their task, as hardware rule counters free with
// the rule.
func (r *Registry) DropTask(task int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.order[:0]
	for _, k := range r.order {
		if k.Task == task {
			delete(r.rules, k)
		} else {
			kept = append(kept, k)
		}
	}
	r.order = kept
}

// PrepDrops is the striped preparation-stage drop counter (flushed by the
// data-plane contexts alongside rule hits).
func (r *Registry) PrepDrops() *Counter { return &r.prepDrops }

// SettleDigests folds n compression-stage digests from a retiring snapshot.
func (r *Registry) SettleDigests(n uint64) {
	if n != 0 {
		r.digests.Add(n)
	}
}

// SetVersion records the current snapshot version.
func (r *Registry) SetVersion(v uint64) { r.version.Store(v) }

// Version returns the last recorded snapshot version.
func (r *Registry) Version() uint64 { return r.version.Load() }

// SetSource attaches the data-plane folder (normally the controller).
func (r *Registry) SetSource(s DataPlaneSource) {
	r.srcMu.Lock()
	r.source = s
	r.srcMu.Unlock()
}

// FoldDataPlane builds the rule/stage section of a DataPlane from the
// durable counters plus a live (unsettled) sample of the published snapshot.
// The caller — normally the controller, holding whatever quiescence it wants
// — fills in packets, registers, and sharding totals afterwards.
func (r *Registry) FoldDataPlane(live LiveSample) DataPlane {
	liveMain := make(map[*RuleCounter]bool, len(live.Derived))
	for _, rc := range live.Derived {
		liveMain[rc] = true
	}
	liveSpl := make(map[*RuleCounter]bool, len(live.DerivedSpliced))
	for _, rc := range live.DerivedSpliced {
		liveSpl[rc] = true
	}

	r.mu.Lock()
	counters := make([]*RuleCounter, 0, len(r.order))
	for _, k := range r.order {
		counters = append(counters, r.rules[k])
	}
	r.mu.Unlock()

	var dp DataPlane
	drops := r.prepDrops.Load()
	for _, rc := range counters {
		hits := rc.Total()
		if liveMain[rc] {
			hits += live.Packets
		} else if liveSpl[rc] {
			hits += live.Recirculated
		}
		dp.Rules = append(dp.Rules, RuleStat{
			RuleKey: rc.Key,
			Op:      rc.Meta.Op,
			Prep:    rc.Meta.Prep,
			Spliced: rc.Meta.Spliced,
			Sharded: rc.Meta.Sharded,
			Hits:    hits,
		})
		dp.Stages.Initialization += hits
		if rc.Meta.Prep {
			dp.Stages.Preparation += hits
		}
	}
	dp.Stages.Compression = r.digests.Load() + live.Digests
	// Operations committed = initializations minus preparation-stage drops
	// (a dropped packet ran C, I and P but never reached the register).
	dp.Stages.Operation = dp.Stages.Initialization - drops
	return dp
}

// RecordDrain notes one lane-drain pass that folded `buckets` lane buckets
// into shared registers; a pass that found every lane clean folds none.
func (r *Registry) RecordDrain(buckets int) {
	if buckets == 0 {
		r.cleanDrains.Add(1)
		return
	}
	r.drains.Add(1)
	r.drainedBuckets.Add(uint64(buckets))
}

// Report assembles a full scrape. With a DataPlaneSource attached the
// data-plane section is folded under the controller's quiescence; otherwise
// it reflects settled counters only.
func (r *Registry) Report() Report {
	r.srcMu.Lock()
	src, sources := r.source, r.sources
	r.srcMu.Unlock()
	var dp DataPlane
	if src != nil {
		dp = src.TelemetryDataPlane()
	} else {
		dp = r.FoldDataPlane(LiveSample{})
	}
	rep := Report{
		UptimeNs:  time.Since(r.start).Nanoseconds(),
		DataPlane: dp,
		ControlPlane: ControlPlane{
			SnapshotVersion: r.version.Load(),
			Events:          r.Journal.Events(),
			EventsTotal:     r.Journal.Total(),
			EventsDropped:   r.Journal.Dropped(),
			MutationLatency: r.MutationLatency.Snapshot(),
			DrainLatency:    r.DrainLatency.Snapshot(),
		},
	}
	var c catalogue
	c.gauge("flymon_uptime_seconds", "Time since the telemetry registry was created.", sample(uint64(rep.UptimeNs)))
	rep.DataPlane.collect(&c)
	r.replay.collect(&c)
	rep.ControlPlane.collect(&c)
	c.counter("flymon_lane_drains_total", "Register-lane drain passes by outcome (clean = no lane was dirty).",
		sample(r.drains.Load(), "outcome", "folded"), sample(r.cleanDrains.Load(), "outcome", "clean"))
	c.counter("flymon_lane_buckets_folded_total", "Lane buckets folded into shared registers by drains.", sample(r.drainedBuckets.Load()))
	collectRPC(&c, &r.RPCClient, &r.RPCServer)
	r.Fleet.collect(&c)
	ReadBuildInfo().collect(&c)
	for _, s := range sources {
		c = append(c, s.Families()...)
	}
	rep.Families = c
	return rep
}
