package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// EndpointStats counts the outcomes of one RPC method. The fields are plain
// atomics (not striped Counters): the control channel handles requests, not
// packets, so a shared cache line per method is plenty.
type EndpointStats struct {
	Requests atomic.Uint64 // attempts that reached the wire (passed the breaker)
	Failures atomic.Uint64 // attempts that returned an error
	Retries  atomic.Uint64 // extra attempts after the first (client side only)
	Timeouts atomic.Uint64 // failures classified as deadline expiry
}

// BreakerCounters counts circuit-breaker transitions *into* each state.
type BreakerCounters struct {
	Open     atomic.Uint64
	HalfOpen atomic.Uint64
	Closed   atomic.Uint64
}

// RPCStats aggregates per-endpoint counters for one side of the control
// channel (a client or a server). Endpoint lazily creates the per-method
// stats; everything after that is lock-free.
type RPCStats struct {
	Breaker BreakerCounters
	Panics  atomic.Uint64 // handler panics recovered into error responses (server side)

	mu  sync.Mutex
	eps map[string]*EndpointStats
}

// Endpoint returns the stats for a method, creating them on first use.
func (s *RPCStats) Endpoint(method string) *EndpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eps == nil {
		s.eps = make(map[string]*EndpointStats)
	}
	ep := s.eps[method]
	if ep == nil {
		ep = &EndpointStats{}
		s.eps[method] = ep
	}
	return ep
}

// sorted returns the endpoints ordered by method name, for stable
// rendering.
func (s *RPCStats) sorted() (methods []string, eps []*EndpointStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for m := range s.eps {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	for _, m := range methods {
		eps = append(eps, s.eps[m])
	}
	return methods, eps
}

// endpointFamilies declares one family per endpoint counter, with a series
// per method of each side.
var endpointFamilies = [...]struct {
	name, help string
	value      func(*EndpointStats) uint64
}{
	{"flymon_rpc_requests_total", "Control-channel requests per endpoint.",
		func(e *EndpointStats) uint64 { return e.Requests.Load() }},
	{"flymon_rpc_failures_total", "Control-channel request failures per endpoint.",
		func(e *EndpointStats) uint64 { return e.Failures.Load() }},
	{"flymon_rpc_retries_total", "Client retry attempts per endpoint.",
		func(e *EndpointStats) uint64 { return e.Retries.Load() }},
	{"flymon_rpc_timeouts_total", "Request failures classified as timeouts per endpoint.",
		func(e *EndpointStats) uint64 { return e.Timeouts.Load() }},
}

// collectRPC declares both control-channel sides as one family per counter
// (a family's HELP/TYPE may appear only once in an exposition), labelled
// side and method.
func collectRPC(c *catalogue, client, server *RPCStats) {
	type side struct {
		name    string
		stats   *RPCStats
		methods []string
		eps     []*EndpointStats
	}
	sides := [2]side{{name: "client", stats: client}, {name: "server", stats: server}}
	for i := range sides {
		sides[i].methods, sides[i].eps = sides[i].stats.sorted()
	}
	for _, f := range endpointFamilies {
		var series []Sample
		for _, sd := range sides {
			for i, ep := range sd.eps {
				series = append(series, sample(f.value(ep), "side", sd.name, "method", sd.methods[i]))
			}
		}
		c.counter(f.name, f.help, series...)
	}
	var breaker []Sample
	for _, sd := range sides {
		b := &sd.stats.Breaker
		breaker = append(breaker,
			sample(b.Open.Load(), "side", sd.name, "to", "open"),
			sample(b.HalfOpen.Load(), "side", sd.name, "to", "half-open"),
			sample(b.Closed.Load(), "side", sd.name, "to", "closed"))
	}
	c.counter("flymon_rpc_breaker_transitions_total", "Circuit-breaker state transitions.", breaker...)
	c.counter("flymon_rpc_server_panics_total", "Handler panics recovered into error responses.", sample(server.Panics.Load()))
}

// SessionGauge is one switch's liveness-session state at scrape time (the
// series of flymon_fleet_session_state and flymon_fleet_session_damped).
// State is the session state name ("down"/"init"/"up"); Damped marks a
// session that reached Up but is held out of service by flap damping.
type SessionGauge struct {
	Switch int
	Addr   string
	State  string
	Damped bool
}

// FleetStats counts network-wide fan-out health: how often RemoteFleet
// queries went out, failed per switch, merged partially, how each switch's
// health classification moved, and — once liveness sessions are attached —
// the BFD-style session machinery: state transitions, ejects/rejoins,
// detection latency, and the reconciler's anti-entropy work.
type FleetStats struct {
	FanOuts       atomic.Uint64 // fleet-wide operations issued
	OpFailures    atomic.Uint64 // per-switch operation failures inside fan-outs
	PartialMerges atomic.Uint64 // degraded-mode merges that proceeded without every switch
	ToHealthy     atomic.Uint64 // health transitions into each state
	ToDegraded    atomic.Uint64
	ToDown        atomic.Uint64

	// Liveness-session machinery.
	SessionToUp   atomic.Uint64 // session state transitions into each state
	SessionToInit atomic.Uint64
	SessionToDown atomic.Uint64
	Ejects        atomic.Uint64 // switches pulled from fan-outs/merges (reported-Up lost)
	Rejoins       atomic.Uint64 // switches readmitted (reported-Up regained)
	DetectionTime Histogram     // last good reply → Down detection latency

	// Reconciler anti-entropy work.
	ReconcileRuns   atomic.Uint64 // full desired-vs-observed passes
	Redeploys       atomic.Uint64 // missing tasks re-deployed onto a switch
	ReconcileErrors atomic.Uint64 // per-switch reconcile failures (unreachable, diverged)

	// MergeTree instruments the parallel merge-tree query engine and the
	// epoch-coherent readout path (straggler policies).
	MergeTree MergeTreeStats

	mu       sync.Mutex
	sessions map[int]SessionGauge
}

// SetSession publishes one switch's session gauge (overwriting the
// previous value for that switch index).
func (f *FleetStats) SetSession(g SessionGauge) {
	f.mu.Lock()
	if f.sessions == nil {
		f.sessions = make(map[int]SessionGauge)
	}
	f.sessions[g.Switch] = g
	f.mu.Unlock()
}

// sessionStates maps a session state name to its flymon_fleet_session_state
// value (anything else is down, 0).
var sessionStates = map[string]uint64{"init": 1, "up": 2}

// collect declares the fleet families.
func (f *FleetStats) collect(c *catalogue) {
	c.counter("flymon_fleet_fan_outs_total", "Fleet-wide operations issued by RemoteFleet.", sample(f.FanOuts.Load()))
	c.counter("flymon_fleet_op_failures_total", "Per-switch operation failures inside fleet fan-outs.", sample(f.OpFailures.Load()))
	c.counter("flymon_fleet_partial_merges_total", "Degraded-mode merges missing at least one switch.", sample(f.PartialMerges.Load()))
	c.counter("flymon_fleet_health_transitions_total", "Switch health state transitions.",
		sample(f.ToHealthy.Load(), "to", "healthy"),
		sample(f.ToDegraded.Load(), "to", "degraded"),
		sample(f.ToDown.Load(), "to", "down"))
	c.counter("flymon_fleet_session_transitions_total", "Liveness session state transitions.",
		sample(f.SessionToUp.Load(), "to", "up"),
		sample(f.SessionToInit.Load(), "to", "init"),
		sample(f.SessionToDown.Load(), "to", "down"))
	c.counter("flymon_fleet_ejects_total", "Switches pulled from fan-outs/merges by liveness.", sample(f.Ejects.Load()))
	c.counter("flymon_fleet_rejoins_total", "Switches readmitted after liveness recovery.", sample(f.Rejoins.Load()))
	c.counter("flymon_fleet_reconcile_runs_total", "Desired-vs-observed anti-entropy passes.", sample(f.ReconcileRuns.Load()))
	c.counter("flymon_fleet_redeploys_total", "Missing tasks re-deployed by the reconciler.", sample(f.Redeploys.Load()))
	c.counter("flymon_fleet_reconcile_errors_total", "Per-switch reconcile failures.", sample(f.ReconcileErrors.Load()))

	f.mu.Lock()
	idx := make([]int, 0, len(f.sessions))
	for i := range f.sessions {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var state, damped []Sample
	for _, i := range idx {
		g := f.sessions[i]
		labels := []string{"switch", itoa(g.Switch), "addr", g.Addr}
		state = append(state, sample(sessionStates[g.State], labels...))
		damped = append(damped, sample(boolValue(g.Damped), labels...))
	}
	f.mu.Unlock()
	c.gauge("flymon_fleet_session_state", "Liveness session state per switch (0=down, 1=init, 2=up).", state...)
	c.gauge("flymon_fleet_session_damped", "Whether flap damping is holding the switch out of service.", damped...)

	c.histogram("flymon_fleet_detection_seconds", "Liveness failure-detection latency (last good reply to Down).",
		histSample(f.DetectionTime.Snapshot()))
	f.MergeTree.collect(c)
}
