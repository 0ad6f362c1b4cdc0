package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
	"flymon/internal/tracing"
)

// Options tunes the client's resilience behavior. The zero value of any
// field selects the default; DefaultOptions lists them.
type Options struct {
	// DialTimeout bounds each TCP connect (initial and reconnect).
	DialTimeout time.Duration
	// CallTimeout bounds one request/response round trip: it is set as the
	// connection deadline for every call, so a hung daemon surfaces as an
	// i/o timeout instead of blocking the client (and every queued caller)
	// forever. Raise it for long replays over slow links.
	CallTimeout time.Duration
	// MaxRetries is the retry budget for idempotent (read-only) methods
	// after a transport failure (0 = default; negative = never retry).
	// Mutations are never retried automatically: the request may have been
	// applied before the failure.
	MaxRetries int
	// BackoffBase/BackoffMax shape the exponential backoff between retry
	// attempts (base·2^attempt, capped, with ±50% jitter).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold consecutive transport failures open the circuit;
	// while open, calls fail fast with ErrCircuitOpen until BreakerCooldown
	// elapses and a half-open probe is admitted.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed fixes the jitter stream (0 = derived from the clock). Tests use
	// this to make backoff schedules reproducible.
	Seed int64
	// Dialer overrides the transport dial, letting tests inject a
	// fault-wrapped connection (see internal/faultnet.Dialer). nil = TCP.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Telemetry, when set, receives per-method request/failure/retry/
	// timeout counts and breaker-transition counts from this client
	// (normally a Registry's RPCClient side). nil = uninstrumented.
	Telemetry *telemetry.RPCStats
	// Tracer, when set, records one span per RPC attempt (retries and
	// breaker rejections included) for calls carrying a parent span
	// context, and stamps that context onto the request envelope so the
	// daemon's spans join the same trace. nil = untraced.
	Tracer *tracing.Tracer
}

// DefaultOptions are the resilience defaults applied by Dial.
var DefaultOptions = Options{
	DialTimeout:      5 * time.Second,
	CallTimeout:      30 * time.Second,
	MaxRetries:       2,
	BackoffBase:      25 * time.Millisecond,
	BackoffMax:       1 * time.Second,
	BreakerThreshold: 5,
	BreakerCooldown:  3 * time.Second,
}

func (o Options) withDefaults() Options {
	d := DefaultOptions
	if o.DialTimeout <= 0 {
		o.DialTimeout = d.DialTimeout
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = d.CallTimeout
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = d.MaxRetries
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = d.BackoffBase
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = d.BackoffMax
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = d.BreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = d.BreakerCooldown
	}
	if o.Dialer == nil {
		o.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return o
}

// TransportError marks a failure of the channel itself (dial, deadline,
// reset, corrupt frame, desynced stream) as opposed to an error the daemon
// returned. For a mutation, a TransportError means the request may or may
// not have been applied — callers that need certainty must re-query.
type TransportError struct {
	Method string
	Err    error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("rpc: transport failure during %s (request may or may not have been applied): %v", e.Method, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// idempotentMethods lists the read-only calls the client may transparently
// retry after a transport failure: re-executing them cannot change daemon
// state.
var idempotentMethods = map[string]bool{
	MethodPing:          true,
	MethodListTasks:     true,
	MethodEstimate:      true,
	MethodCardinality:   true,
	MethodContains:      true,
	MethodReported:      true,
	MethodDistribution:  true,
	MethodReadRegisters: true,
	MethodResources:     true,
	MethodReport:        true,
	MethodStats:         true,
	MethodTelemetry:     true,
	MethodReadEpoch:     true,
	MethodKeyIndices:    true,
	MethodTraceDump:     true,
	// MethodEpochRotate is NOT here even though an explicit-target rotate
	// is idempotent: a bare "advance by one" retry would double-rotate.
	// The fleet layer retries it deliberately, always with a target.
}

// drainLimit bounds how many stale (lower-ID) responses one call will
// consume before declaring the stream poisoned and reconnecting.
const drainLimit = 8

// Client is a synchronous, self-healing control-channel client: per-call
// deadlines, automatic reconnect with jittered exponential backoff, a
// retry budget for idempotent methods, stale-response draining, and a
// circuit breaker that fails fast when the endpoint is down.
type Client struct {
	addr string
	opts Options

	mu     sync.Mutex // serializes calls; never held across unbounded I/O
	conn   net.Conn
	codec  *codec
	next   uint64
	closed bool
	rng    *rand.Rand

	brk    *breaker
	tele   *telemetry.RPCStats
	tracer *tracing.Tracer
}

// Dial connects to a FlyMon daemon with DefaultOptions.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects with explicit resilience options. The initial dial
// must succeed (a misconfigured address should fail loudly); after that
// the client reconnects on demand.
func DialOptions(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Client{
		addr:   addr,
		opts:   opts,
		rng:    rand.New(rand.NewSource(seed)),
		brk:    newBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		tele:   opts.Telemetry,
		tracer: opts.Tracer,
	}
	if tele := opts.Telemetry; tele != nil {
		c.brk.onTransition = func(st BreakerState) {
			switch st {
			case BreakerOpen:
				tele.Breaker.Open.Add(1)
			case BreakerHalfOpen:
				tele.Breaker.HalfOpen.Add(1)
			case BreakerClosed:
				tele.Breaker.Closed.Add(1)
			}
		}
	}
	conn, err := opts.Dialer(addr, opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	c.conn = conn
	c.codec = newCodec(conn)
	return c, nil
}

// Addr returns the daemon address this client targets.
func (c *Client) Addr() string { return c.addr }

// SetTracer attaches (or replaces) the tracer recording this client's
// per-attempt spans. The fleet layer uses it to propagate its tracer to
// clients it was handed already-dialed.
func (c *Client) SetTracer(tr *tracing.Tracer) {
	c.mu.Lock()
	c.tracer = tr
	c.mu.Unlock()
}

// BreakerState reports the circuit breaker's state and the consecutive
// transport-failure count, for health surfacing.
func (c *Client) BreakerState() (BreakerState, int) { return c.brk.snapshot() }

// Close tears down the connection. Subsequent calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.codec = nil
	return err
}

// teardown drops a connection whose stream state is no longer trustworthy.
func (c *Client) teardown() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.codec = nil
	}
}

// ensureConn redials if the previous connection was torn down.
func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	conn, err := c.opts.Dialer(c.addr, c.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("rpc: reconnect %s: %w", c.addr, err)
	}
	c.conn = conn
	c.codec = newCodec(conn)
	return nil
}

// backoff sleeps base·2^attempt capped at BackoffMax, with ±50% jitter so
// a fleet of clients does not reconnect in lockstep.
func (c *Client) backoff(attempt int) {
	d := c.opts.BackoffBase << uint(attempt)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	half := int64(d) / 2
	if half > 0 {
		d = time.Duration(half + c.rng.Int63n(2*half))
	}
	time.Sleep(d)
}

// call performs one synchronous request with retries for idempotent
// methods. Calls are serialized: the protocol is strictly one in-flight
// request per connection.
func (c *Client) call(method string, params, result any) error {
	return c.callCtx(tracing.SpanContext{}, method, params, result)
}

// callCtx is call with an optional parent span context: when the client
// has a tracer and the parent is valid, every attempt (including backoff
// retries and breaker rejections) records one rpc:<method> span under
// the parent, and the request envelope carries that span's context so
// daemon-side spans join the trace.
func (c *Client) callCtx(parent tracing.SpanContext, method string, params, result any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("rpc: %s on closed client", method)
	}
	attempts := 1
	if idempotentMethods[method] {
		attempts += c.opts.MaxRetries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if c.tele != nil {
				c.tele.Endpoint(method).Retries.Add(1)
			}
			c.backoff(attempt - 1)
		}
		err := c.callOnce(parent, method, attempt+1, params, result)
		if err == nil {
			return nil
		}
		lastErr = err
		var te *TransportError
		if !errors.As(err, &te) {
			// Application error or open breaker: retrying cannot help.
			return err
		}
	}
	return lastErr
}

// callOnce runs a single round trip over the current (or a fresh)
// connection. Any transport failure tears the connection down so the next
// attempt starts from a clean stream.
func (c *Client) callOnce(parent tracing.SpanContext, method string, attempt int, params, result any) (err error) {
	var sp *tracing.ActiveSpan
	if c.tracer != nil && parent.Valid() {
		sp = c.tracer.StartSpan(parent, "rpc:"+method)
		sp.SetDetail(c.addr)
		sp.SetAttempt(attempt)
		defer func() { sp.Finish(err) }()
	}
	if err := c.brk.allow(); err != nil {
		// A breaker rejection is still a span: the trace shows the call
		// failed fast instead of silently missing an attempt.
		return err
	}
	if c.tele != nil {
		ep := c.tele.Endpoint(method)
		ep.Requests.Add(1)
		defer func() {
			if err == nil {
				return
			}
			ep.Failures.Add(1)
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				ep.Timeouts.Add(1)
			}
		}()
	}
	fail := func(err error) error {
		c.teardown()
		te := &TransportError{Method: method, Err: err}
		c.brk.failure(te)
		return te
	}
	if err := c.ensureConn(); err != nil {
		return fail(err)
	}
	c.next++
	req := Request{ID: c.next, Method: method}
	if sp != nil {
		sc := sp.Context()
		req.Trace = &sc
	}
	if params != nil {
		raw, err := json.Marshal(params)
		if err != nil {
			return fmt.Errorf("rpc: encoding params: %w", err)
		}
		req.Params = raw
	}
	// The deadline covers the whole round trip; it is what guarantees a
	// hung daemon cannot wedge this client (satellite: no unbounded I/O
	// under c.mu).
	c.conn.SetDeadline(time.Now().Add(c.opts.CallTimeout))
	defer func() {
		if c.conn != nil {
			c.conn.SetDeadline(time.Time{})
		}
	}()
	if err := c.codec.write(&req); err != nil {
		return fail(fmt.Errorf("sending: %w", err))
	}
	var resp Response
	var frame []byte
	for drained := 0; ; drained++ {
		resp = Response{}
		if err := c.codec.read(&resp); err != nil {
			return fail(fmt.Errorf("receiving: %w", err))
		}
		if resp.ID == req.ID {
			// A response may announce a binary frame: consume it before
			// anything else — unconsumed frame bytes poison the stream for
			// every later call. Consuming even on a decode error below keeps
			// the connection reusable.
			if resp.Frame > 0 {
				var err error
				if frame, err = c.codec.readFrame(resp.Frame); err != nil {
					return fail(err)
				}
			}
			break
		}
		if resp.ID < req.ID && drained < drainLimit {
			// A stale response from an abandoned call: drain it (frame
			// included) and keep reading rather than poisoning the stream
			// for every later caller.
			if resp.Frame > 0 {
				if err := c.codec.discardFrame(resp.Frame); err != nil {
					return fail(err)
				}
			}
			continue
		}
		return fail(fmt.Errorf("response id %d for request %d: stream desynced", resp.ID, req.ID))
	}
	if resp.Error != nil {
		// The daemon answered: the channel is healthy even if the request
		// was rejected.
		c.brk.success()
		return fmt.Errorf("rpc: %s: %w", method, resp.Error)
	}
	if result != nil {
		if err := json.Unmarshal(resp.Result, result); err != nil {
			return fail(fmt.Errorf("decoding result: %w", err))
		}
		if fr, ok := result.(frameReceiver); ok && frame != nil {
			fr.setFrameBytes(frame)
		}
	}
	c.brk.success()
	return nil
}

// firstCtx unwraps the optional trailing span-context parameter the
// traced methods accept: absent means "untraced call" (the invalid zero
// context), which keeps every pre-tracing call site source-compatible.
func firstCtx(parent []tracing.SpanContext) tracing.SpanContext {
	if len(parent) > 0 {
		return parent[0]
	}
	return tracing.SpanContext{}
}

// Ping checks connectivity.
func (c *Client) Ping() error {
	var r BoolResult
	return c.call(MethodPing, nil, &r)
}

// TraceDump fetches the daemon's span-buffer snapshot (limit <= 0 means
// every retained span). Collectors fetch dumps fleet-wide and assemble
// them with tracing.Assemble.
func (c *Client) TraceDump(limit int) (TraceDumpResult, error) {
	var r TraceDumpResult
	err := c.call(MethodTraceDump, TraceDumpParams{Limit: limit}, &r)
	return r, err
}

// Hello sends one liveness probe carrying the local session's state and
// returns the daemon's answer (its session state plus its process
// incarnation). Hello is deliberately NOT in the idempotent-retry set:
// the liveness state machine owns failure handling, and transparent
// retries would distort its detection timing.
func (c *Client) Hello(session string, state int, txInterval time.Duration) (HelloResult, error) {
	var r HelloResult
	err := c.call(MethodHello, HelloParams{
		Session: session, State: state, TxIntervalNs: txInterval.Nanoseconds(),
	}, &r)
	return r, err
}

// AddTask deploys a measurement task. The optional trailing span context
// parents this call's RPC spans (likewise on the other traced methods).
func (c *Client) AddTask(spec controlplane.TaskSpec, parent ...tracing.SpanContext) (TaskResult, error) {
	var r TaskResult
	err := c.callCtx(firstCtx(parent), MethodAddTask, spec, &r)
	return r, err
}

// RemoveTask removes a task.
func (c *Client) RemoveTask(id int, parent ...tracing.SpanContext) error {
	var r BoolResult
	return c.callCtx(firstCtx(parent), MethodRemoveTask, TaskIDParams{ID: id}, &r)
}

// ResizeTask reallocates a task's memory.
func (c *Client) ResizeTask(id, newBuckets int, parent ...tracing.SpanContext) (TaskResult, error) {
	var r TaskResult
	err := c.callCtx(firstCtx(parent), MethodResizeTask, ResizeParams{ID: id, NewBuckets: newBuckets}, &r)
	return r, err
}

// ListTasks lists deployed tasks.
func (c *Client) ListTasks(parent ...tracing.SpanContext) ([]TaskResult, error) {
	var r []TaskResult
	err := c.callCtx(firstCtx(parent), MethodListTasks, nil, &r)
	return r, err
}

// Estimate returns a per-key estimate.
func (c *Client) Estimate(id int, key packet.CanonicalKey) (float64, error) {
	var r EstimateResult
	err := c.call(MethodEstimate, KeyParams{ID: id, Key: key[:]}, &r)
	return r.Value, err
}

// Cardinality returns a cardinality task's estimate.
func (c *Client) Cardinality(id int) (float64, error) {
	var r EstimateResult
	err := c.call(MethodCardinality, TaskIDParams{ID: id}, &r)
	return r.Value, err
}

// Contains reports Bloom-filter membership.
func (c *Client) Contains(id int, key packet.CanonicalKey) (bool, error) {
	var r BoolResult
	err := c.call(MethodContains, KeyParams{ID: id, Key: key[:]}, &r)
	return r.Value, err
}

// Reported returns detected keys among candidates.
func (c *Client) Reported(id int, candidates []packet.CanonicalKey) ([]packet.CanonicalKey, error) {
	p := CandidatesParams{ID: id}
	for _, k := range candidates {
		kk := k
		p.Candidates = append(p.Candidates, kk[:])
	}
	var r ReportedResult
	if err := c.call(MethodReported, p, &r); err != nil {
		return nil, err
	}
	out := make([]packet.CanonicalKey, len(r.Keys))
	for i, b := range r.Keys {
		out[i] = keyFromBytes(b)
	}
	return out, nil
}

// Distribution returns an MRAC task's flow-size distribution and entropy.
func (c *Client) Distribution(id int) (DistributionResult, error) {
	var r DistributionResult
	err := c.call(MethodDistribution, TaskIDParams{ID: id}, &r)
	return r, err
}

// ReadRegisters reads a task's raw register partitions and their layout
// fingerprint; RegistersResult.FrameRows decodes the rows.
func (c *Client) ReadRegisters(id int, parent ...tracing.SpanContext) (RegistersResult, error) {
	var r RegistersResult
	err := c.callCtx(firstCtx(parent), MethodReadRegisters, TaskIDParams{ID: id}, &r)
	return r, err
}

// EpochDeploy creates an epoch task (a daemon-side rotator) for spec.
func (c *Client) EpochDeploy(spec controlplane.TaskSpec, parent ...tracing.SpanContext) (EpochTaskResult, error) {
	var r EpochTaskResult
	err := c.callCtx(firstCtx(parent), MethodEpochDeploy, spec, &r)
	return r, err
}

// EpochRotate advances an epoch task to toEpoch (0 = advance by one).
// With an explicit target the call is idempotent and safe to re-send.
func (c *Client) EpochRotate(name string, toEpoch int, parent ...tracing.SpanContext) (EpochTaskResult, error) {
	var r EpochTaskResult
	err := c.callCtx(firstCtx(parent), MethodEpochRotate, EpochRotateParams{Name: name, ToEpoch: toEpoch}, &r)
	return r, err
}

// ReadEpoch fetches one completed epoch's packed register snapshot
// (epoch 0 = the daemon's latest completed epoch). A daemon that cannot
// serve the epoch answers an *Error coded CodeEpochUnavailable whose Have is
// the epoch it has reached.
func (c *Client) ReadEpoch(name string, epoch int, parent ...tracing.SpanContext) (EpochRegistersResult, error) {
	var r EpochRegistersResult
	err := c.callCtx(firstCtx(parent), MethodReadEpoch, ReadEpochParams{Name: name, Epoch: epoch}, &r)
	return r, err
}

// EpochRemove reclaims an epoch task's deployments and snapshots.
func (c *Client) EpochRemove(name string, parent ...tracing.SpanContext) error {
	var r BoolResult
	return c.callCtx(firstCtx(parent), MethodEpochRemove, EpochTaskParams{Name: name}, &r)
}

// KeyIndices returns a flow key's per-row register indices on a frequency
// task, computed by the daemon's own placement.
func (c *Client) KeyIndices(id int, key packet.CanonicalKey) ([]uint32, error) {
	var r KeyIndicesResult
	err := c.call(MethodKeyIndices, KeyParams{ID: id, Key: key[:]}, &r)
	return r.Indices, err
}

// Resources reports free memory and task counts.
func (c *Client) Resources() (ResourcesResult, error) {
	var r ResourcesResult
	err := c.call(MethodResources, nil, &r)
	return r, err
}

// ResourceReport returns the per-group occupancy report.
func (c *Client) ResourceReport() ([]controlplane.GroupReport, error) {
	var r ReportResult
	err := c.call(MethodReport, nil, &r)
	return r.Groups, err
}

// SplitTask splits a task into two filter-disjoint subtasks (§3.1.1).
func (c *Client) SplitTask(id int) (lo, hi TaskResult, err error) {
	var r SplitResult
	err = c.call(MethodSplitTask, TaskIDParams{ID: id}, &r)
	return r.Lo, r.Hi, err
}

// LoadTrace loads a binary trace file from the daemon's filesystem.
func (c *Client) LoadTrace(path string) (int, error) {
	var r ReplayResult
	err := c.call(MethodLoadTrace, LoadTraceParams{Path: path}, &r)
	return r.Processed, err
}

// GenTrace synthesizes a workload inside the daemon.
func (c *Client) GenTrace(flows, packets int, zipfS float64, seed int64) (int, error) {
	var r ReplayResult
	err := c.call(MethodGenTrace, GenTraceParams{Flows: flows, Packets: packets, ZipfS: zipfS, Seed: seed}, &r)
	return r.Processed, err
}

// Replay pushes n packets (0 = all) of the loaded trace through the
// pipeline.
func (c *Client) Replay(n int) (int, error) {
	var r ReplayResult
	err := c.call(MethodReplay, ReplayParams{Packets: n}, &r)
	return r.Processed, err
}

// Stats returns daemon counters.
func (c *Client) Stats() (StatsResult, error) {
	var r StatsResult
	err := c.call(MethodStats, nil, &r)
	return r, err
}

// Telemetry fetches the daemon's full telemetry report (errors if the
// daemon runs without a telemetry registry).
func (c *Client) Telemetry(parent ...tracing.SpanContext) (telemetry.Report, error) {
	var r telemetry.Report
	err := c.callCtx(firstCtx(parent), MethodTelemetry, nil, &r)
	return r, err
}
