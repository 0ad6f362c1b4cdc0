package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
	"flymon/internal/tracing"
)

// helloSession is the daemon-side half of one liveness session: the state
// machine mirror of a controller's periodic Hello probes.
type helloSession struct {
	state    int
	lastSeen time.Time
	txNs     int64
}

// DefaultHelloGC is how long a daemon-side liveness session may go without
// a probe before the session table forgets it (a controller that died or
// abandoned the session). Sweeps happen lazily on incoming hellos.
const DefaultHelloGC = 2 * time.Minute

// Server exposes a controlplane.Controller over the control channel and
// owns the daemon-side workload state (a loaded trace to replay).
type Server struct {
	ctrl *controlplane.Controller

	// tr is the loaded workload in the one form the data plane ingests: a
	// frame trace, mapped from a file (load_trace) or encoded from a
	// generated workload (gen_trace). A replay holds mu shared for the
	// whole drain; replacing the trace (and unmapping the old one) takes it
	// exclusively, so a mapping is never released under a running replay.
	mu sync.RWMutex
	tr *mmtrace.Trace

	// Epoch tasks: per-name rotators plus their per-epoch register
	// snapshots (see epoch.go). epochMu also serializes rotations, which
	// is what makes epoch_rotate's read-then-advance idempotency safe
	// against concurrent retries.
	epochMu sync.Mutex
	epochs  map[string]*epochTask

	// Liveness: per-controller-session handshake state plus this process
	// instance's identity. incarnation changes across restarts, which is
	// how a controller learns its peer came back empty.
	helloMu     sync.Mutex
	hellos      map[string]*helloSession
	helloGC     time.Duration
	incarnation int64
	started     time.Time

	ln        net.Listener
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	log       *telemetry.Logger

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// tele, when set, counts per-method requests/failures and recovered
	// handler panics (the registry's RPCServer side) and serves the
	// MethodTelemetry scrape.
	tele *telemetry.Registry

	// tracer, when set, records a dispatch span for every request that
	// arrives carrying a trace context, controlplane child spans around
	// mutations, and serves MethodTraceDump from its span buffer.
	tracer *tracing.Tracer
}

// incarnationSeq distinguishes servers created in the same process (tests
// restart daemons in-process); combined with the start time it gives every
// server instance a unique incarnation.
var incarnationSeq atomic.Int64

// NewServer wraps a controller. logf may be nil (silent); it is adapted
// into the leveled logger at debug threshold for compatibility — use
// SetLogger to install a real telemetry.Logger with level control.
func NewServer(ctrl *controlplane.Controller, logf func(string, ...any)) *Server {
	return &Server{
		ctrl:        ctrl,
		epochs:      make(map[string]*epochTask),
		closed:      make(chan struct{}),
		log:         telemetry.NewFuncLogger("rpc", telemetry.LevelDebug, logf),
		conns:       make(map[net.Conn]struct{}),
		hellos:      make(map[string]*helloSession),
		helloGC:     DefaultHelloGC,
		incarnation: time.Now().UnixNano() + incarnationSeq.Add(1),
		started:     time.Now(),
	}
}

// SetLogger replaces the server's logger (nil silences it). Call before
// Serve.
func (s *Server) SetLogger(l *telemetry.Logger) { s.log = l }

// SetTracer attaches the daemon's span tracer. Call before Serve.
func (s *Server) SetTracer(tr *tracing.Tracer) { s.tracer = tr }

// SetHelloGC overrides how long daemon-side liveness sessions survive
// without a probe (0 restores the default). Call before Serve.
func (s *Server) SetHelloGC(d time.Duration) {
	if d <= 0 {
		d = DefaultHelloGC
	}
	s.helloGC = d
}

// Incarnation returns this server instance's identity value (the one
// HelloResult reports).
func (s *Server) Incarnation() int64 { return s.incarnation }

// handleHello runs the daemon side of the BFD-style three-way handshake
// for one received probe: fold the sender's state into this session's
// state machine and answer with ours.
//
//	local Down + remote Down        → Init  (peer sees us; start coming up)
//	local Down|Init + remote Init   → Up    (peer saw our hello — three-way done)
//	local Init + remote Up          → Up
//	local Up   + remote Down        → Down  (peer reset; restart the handshake)
//	local Down + remote Up          → Down  (stale peer: it must re-init first)
func (s *Server) handleHello(p HelloParams) HelloResult {
	now := time.Now()
	s.helloMu.Lock()
	sess := s.hellos[p.Session]
	if sess == nil {
		sess = &helloSession{state: HelloStateDown}
		s.hellos[p.Session] = sess
		// Lazy GC: forget sessions whose controller stopped probing. The
		// horizon is max(helloGC, a few advertised tx intervals) so slow
		// sessions are not reaped between their own probes.
		for id, other := range s.hellos {
			horizon := s.helloGC
			if adv := time.Duration(other.txNs) * 16; adv > horizon {
				horizon = adv
			}
			if other != sess && now.Sub(other.lastSeen) > horizon {
				delete(s.hellos, id)
			}
		}
	}
	sess.lastSeen = now
	if p.TxIntervalNs > 0 {
		sess.txNs = p.TxIntervalNs
	}
	switch p.State {
	case HelloStateDown:
		switch sess.state {
		case HelloStateDown:
			sess.state = HelloStateInit
		case HelloStateUp:
			sess.state = HelloStateDown
		}
	case HelloStateInit:
		if sess.state != HelloStateUp {
			sess.state = HelloStateUp
		}
	case HelloStateUp:
		if sess.state == HelloStateInit {
			sess.state = HelloStateUp
		}
	}
	state := sess.state
	nSessions := len(s.hellos)
	s.helloMu.Unlock()
	return HelloResult{
		State:       state,
		Incarnation: s.incarnation,
		UptimeNs:    now.Sub(s.started).Nanoseconds(),
		Tasks:       len(s.ctrl.Tasks()),
		Sessions:    nSessions,
	}
}

// SetTelemetry attaches a telemetry registry: the server counts every
// dispatch into the registry's RPCServer stats and answers MethodTelemetry
// with full reports. Call before Serve.
func (s *Server) SetTelemetry(reg *telemetry.Registry) { s.tele = reg }

// Listen binds addr ("host:port"; ":0" for an ephemeral port) and starts
// serving. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve starts serving on a caller-provided listener — the hook for
// wrapping the control channel in a fault-injecting transport
// (faultnet.WrapListener) or any other net.Listener decorator.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
}

// Close stops the listener, closes every active connection, waits for
// connection handlers to drain, and releases the loaded trace. Without the
// active-connection sweep a single idle client would wedge daemon shutdown
// forever. Close is idempotent: shutdown paths often race a signal handler
// against a defer.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.ln != nil {
			err = s.ln.Close()
		}
		s.connMu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
		s.wg.Wait()
		s.setTrace(nil)
	})
	return err
}

// track registers a live connection and reports whether it did: a
// connection accepted once Close has begun is not registered, because
// Close's sweep may already have run and would never close it, and the
// caller closes it instead. untrack(conn) removes a registered one.
func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			s.log.Errorf("accept: %v", err)
			return
		}
		if !s.track(conn) {
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// serveConn handles one connection. The top-level recover is the last
// line of defense: a panic anywhere in the codec or handler path must cost
// at most this one connection, never the daemon.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		if r := recover(); r != nil {
			s.log.Errorf("connection handler panic (connection dropped): %v", r)
		}
	}()
	c := newCodec(conn)
	for {
		var req Request
		if err := c.read(&req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.log.Debugf("read: %v", err)
			}
			return
		}
		resp, rows := s.dispatch(&req)
		if err := c.write(resp, rows...); err != nil {
			s.log.Warnf("write: %v", err)
			return
		}
	}
}

// dispatch runs one request and returns the response envelope plus the
// rows to transmit after it as a binary frame (results implementing
// framed ship their rows out of band — see Response.Frame).
func (s *Server) dispatch(req *Request) (resp *Response, rows [][]uint32) {
	resp = &Response{ID: req.ID}
	// A request carrying a trace context gets a daemon-side dispatch span
	// parented under the caller's span. The finish defer is registered
	// first so it runs last, after the panic-recovery defer below has
	// turned any handler panic into resp.Error.
	var sc tracing.SpanContext
	if s.tracer != nil && req.Trace != nil && req.Trace.Valid() {
		sp := s.tracer.StartSpan(*req.Trace, "dispatch:"+req.Method)
		sc = sp.Context()
		defer func() {
			var err error
			if resp.Error != nil {
				err = resp.Error
			}
			sp.Finish(err)
		}()
	}
	// The peer chooses the method text, so a method the daemon does not
	// serve is counted under one "unknown" endpoint: junk names must not
	// become permanent series.
	method := req.Method
	if s.tele != nil {
		defer func() {
			ep := s.tele.RPCServer.Endpoint(method)
			ep.Requests.Add(1)
			if resp.Error != nil {
				ep.Failures.Add(1)
			}
		}()
	}
	// One malformed request must not crash the whole daemon: a handler
	// panic becomes an error Response on this connection and a log line.
	defer func() {
		if r := recover(); r != nil {
			s.log.Errorf("panic in %s handler: %v", req.Method, r)
			if s.tele != nil {
				s.tele.RPCServer.Panics.Add(1)
			}
			resp.Result = nil
			resp.Frame = 0
			rows = nil
			resp.Error = &Error{Msg: fmt.Sprintf("rpc: internal error handling %s: %v", req.Method, r)}
		}
	}()
	result, err := s.handle(req.Method, req.Params, sc)
	if errors.Is(err, errUnknownMethod) {
		method = "unknown"
	}
	if err != nil {
		resp.Error = wireError(err)
		return resp, nil
	}
	if fr, ok := result.(framed); ok { // the rows announce their geometry
		r := fr.registers()
		rows, r.RowLens = r.rows, make([]int, len(r.rows))
		for i, row := range rows {
			r.RowLens[i] = len(row)
			resp.Frame += 4 * len(row)
		}
	}
	raw, err := json.Marshal(result)
	if err != nil {
		resp.Error, resp.Frame = &Error{Msg: fmt.Sprintf("rpc: encoding result: %v", err)}, 0
		return resp, nil
	}
	resp.Result = raw
	return resp, rows
}

// wireError puts a handler's error on the wire: a classified *Error keeps
// its code and data under the full message, a missing task ID gets its
// code, everything else travels as text.
func wireError(err error) *Error {
	out := Error{Msg: err.Error()}
	var coded *Error
	if errors.As(err, &coded) {
		out.Code, out.Have = coded.Code, coded.Have
	} else if errors.Is(err, controlplane.ErrNoTask) {
		out.Code = CodeNoTask
	}
	return &out
}

// readRegisters reads one task's registers, which are the readout's frame,
// with the layout fingerprint of the task they were read from.
func (s *Server) readRegisters(id int) (*RegistersResult, error) {
	rows, err := s.ctrl.ReadRegisters(id)
	if err != nil {
		return nil, err
	}
	t, err := s.ctrl.Task(id)
	if err != nil {
		return nil, err
	}
	return &RegistersResult{Fingerprint: t.Fingerprint, rows: rows}, nil
}

func decode[T any](params json.RawMessage) (T, error) {
	var v T
	if len(params) == 0 {
		return v, nil
	}
	err := json.Unmarshal(params, &v)
	if err != nil {
		err = fmt.Errorf("rpc: decoding params: %w", err)
	}
	return v, err
}

// ctlSpan opens a controlplane:<method> child span under the dispatch
// span — the daemon-side mutation segment of a distributed trace. It
// returns nil (safe to Finish) when the request was untraced.
func (s *Server) ctlSpan(sc tracing.SpanContext, method string) *tracing.ActiveSpan {
	if s.tracer == nil || !sc.Valid() {
		return nil
	}
	return s.tracer.StartSpan(sc, "controlplane:"+method)
}

func (s *Server) handle(method string, params json.RawMessage, sc tracing.SpanContext) (any, error) {
	switch method {
	case MethodPing:
		return BoolResult{Value: true}, nil

	case MethodHello:
		p, err := decode[HelloParams](params)
		if err != nil {
			return nil, err
		}
		return s.handleHello(p), nil

	case MethodAddTask:
		spec, err := decode[controlplane.TaskSpec](params)
		if err != nil {
			return nil, err
		}
		sp := s.ctlSpan(sc, method)
		t, err := s.ctrl.AddTask(spec)
		sp.Finish(err)
		if err != nil {
			return nil, err
		}
		return taskResult(t), nil

	case MethodRemoveTask:
		p, err := decode[TaskIDParams](params)
		if err != nil {
			return nil, err
		}
		sp := s.ctlSpan(sc, method)
		err = s.ctrl.RemoveTask(p.ID)
		sp.Finish(err)
		return BoolResult{Value: true}, err

	case MethodResizeTask:
		p, err := decode[ResizeParams](params)
		if err != nil {
			return nil, err
		}
		sp := s.ctlSpan(sc, method)
		_, err = s.ctrl.ResizeTask(p.ID, p.NewBuckets)
		sp.Finish(err)
		if err != nil {
			return nil, err
		}
		t, err := s.ctrl.Task(p.ID)
		if err != nil {
			return nil, err
		}
		return taskResult(t), nil

	case MethodListTasks:
		tasks := s.ctrl.Tasks()
		out := make([]TaskResult, 0, len(tasks))
		for _, t := range tasks {
			out = append(out, taskResult(t))
		}
		return out, nil

	case MethodEstimate:
		p, err := decode[KeyParams](params)
		if err != nil {
			return nil, err
		}
		v, err := s.ctrl.EstimateKey(p.ID, keyFromBytes(p.Key))
		if err != nil {
			return nil, err
		}
		return EstimateResult{Value: v}, nil

	case MethodCardinality:
		p, err := decode[TaskIDParams](params)
		if err != nil {
			return nil, err
		}
		v, err := s.ctrl.Cardinality(p.ID)
		if err != nil {
			return nil, err
		}
		return EstimateResult{Value: v}, nil

	case MethodContains:
		p, err := decode[KeyParams](params)
		if err != nil {
			return nil, err
		}
		v, err := s.ctrl.Contains(p.ID, keyFromBytes(p.Key))
		if err != nil {
			return nil, err
		}
		return BoolResult{Value: v}, nil

	case MethodReported:
		p, err := decode[CandidatesParams](params)
		if err != nil {
			return nil, err
		}
		cands := make([]packet.CanonicalKey, len(p.Candidates))
		for i, b := range p.Candidates {
			cands[i] = keyFromBytes(b)
		}
		rep, err := s.ctrl.Reported(p.ID, cands)
		if err != nil {
			return nil, err
		}
		var out ReportedResult
		for k := range rep {
			kk := k
			out.Keys = append(out.Keys, kk[:])
		}
		sort.Slice(out.Keys, func(i, j int) bool {
			return string(out.Keys[i]) < string(out.Keys[j])
		})
		return out, nil

	case MethodDistribution:
		p, err := decode[TaskIDParams](params)
		if err != nil {
			return nil, err
		}
		dist, entropy, err := s.ctrl.Distribution(p.ID)
		if err != nil {
			return nil, err
		}
		out := DistributionResult{Entropy: entropy}
		sizes := make([]uint64, 0, len(dist))
		for sz := range dist {
			sizes = append(sizes, sz)
		}
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
		for _, sz := range sizes {
			out.Sizes = append(out.Sizes, sz)
			out.Counts = append(out.Counts, dist[sz])
		}
		return out, nil

	case MethodReadRegisters:
		p, err := decode[TaskIDParams](params)
		if err != nil {
			return nil, err
		}
		return s.readRegisters(p.ID)

	case MethodEpochDeploy:
		spec, err := decode[controlplane.TaskSpec](params)
		if err != nil {
			return nil, err
		}
		sp := s.ctlSpan(sc, method)
		r, err := s.handleEpochDeploy(spec)
		sp.Finish(err)
		return r, err

	case MethodEpochRotate:
		p, err := decode[EpochRotateParams](params)
		if err != nil {
			return nil, err
		}
		sp := s.ctlSpan(sc, method)
		r, err := s.handleEpochRotate(p)
		sp.Finish(err)
		return r, err

	case MethodReadEpoch:
		p, err := decode[ReadEpochParams](params)
		if err != nil {
			return nil, err
		}
		return s.handleReadEpoch(p)

	case MethodEpochRemove:
		p, err := decode[EpochTaskParams](params)
		if err != nil {
			return nil, err
		}
		sp := s.ctlSpan(sc, method)
		err = s.handleEpochRemove(p)
		sp.Finish(err)
		return BoolResult{Value: true}, err

	case MethodKeyIndices:
		p, err := decode[KeyParams](params)
		if err != nil {
			return nil, err
		}
		return s.handleKeyIndices(p)

	case MethodResources:
		return ResourcesResult{
			FreeBuckets: s.ctrl.FreeBuckets(),
			Tasks:       len(s.ctrl.Tasks()),
		}, nil

	case MethodReport:
		return ReportResult{Groups: s.ctrl.ResourceReport()}, nil

	case MethodSplitTask:
		p, err := decode[TaskIDParams](params)
		if err != nil {
			return nil, err
		}
		sp := s.ctlSpan(sc, method)
		lo, hi, err := s.ctrl.SplitTask(p.ID)
		sp.Finish(err)
		if err != nil {
			return nil, err
		}
		return SplitResult{Lo: taskResult(lo), Hi: taskResult(hi)}, nil

	case MethodLoadTrace:
		p, err := decode[LoadTraceParams](params)
		if err != nil {
			return nil, err
		}
		tr, err := mmtrace.Open(p.Path)
		if err != nil {
			// Open hands back the intact prefix of a file that ends
			// mid-record; the daemon demands integrity and keeps nothing.
			if tr != nil {
				tr.Close()
			}
			return nil, fmt.Errorf("rpc: loading trace: %w", err)
		}
		s.setTrace(tr)
		return ReplayResult{Processed: tr.Frames()}, nil

	case MethodGenTrace:
		p, err := decode[GenTraceParams](params)
		if err != nil {
			return nil, err
		}
		if err := checkRange("flows", p.Flows, 1, maxGenFlows); err != nil {
			return nil, err
		}
		if err := checkRange("packets", p.Packets, 0, maxGenPackets); err != nil {
			return nil, err
		}
		tr := mmtrace.FromPackets(trace.Generate(trace.Config{
			Flows: p.Flows, Packets: p.Packets, ZipfS: p.ZipfS, Seed: p.Seed,
		}).Packets)
		s.setTrace(tr)
		return ReplayResult{Processed: tr.Frames()}, nil

	case MethodReplay:
		p, err := decode[ReplayParams](params)
		if err != nil {
			return nil, err
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.tr == nil {
			return nil, fmt.Errorf("rpc: no trace loaded (call %s first)", MethodGenTrace)
		}
		// The first N frames (0 = all) through the controller's pool — the
		// same ProcessFrameSource drain flymond -replay runs.
		part := s.tr.Prefix(p.Packets)
		s.ctrl.ReplayTrace(part)
		return ReplayResult{Processed: part.Frames()}, nil

	case MethodStats:
		s.mu.RLock()
		tl := 0
		if s.tr != nil {
			tl = s.tr.Frames()
		}
		s.mu.RUnlock()
		return StatsResult{
			PacketsProcessed: s.ctrl.Pipeline().Packets(),
			TracePackets:     tl,
			Tasks:            len(s.ctrl.Tasks()),
		}, nil

	case MethodTelemetry:
		if s.tele == nil {
			return nil, fmt.Errorf("rpc: daemon runs without telemetry (start it with a registry)")
		}
		return s.tele.Report(), nil

	case MethodTraceDump:
		p, err := decode[TraceDumpParams](params)
		if err != nil {
			return nil, err
		}
		// A daemon without a tracer answers with an empty dump rather than
		// an error: fleet-wide collection should degrade, not fail, when
		// some daemons run untraced.
		spans, total, dropped := s.tracer.Dump()
		if p.Limit > 0 && len(spans) > p.Limit {
			spans = spans[len(spans)-p.Limit:]
		}
		return TraceDumpResult{Spans: spans, Total: total, Dropped: dropped}, nil

	case MethodDebugPanic:
		panic("operator-requested fault drill")

	default:
		return nil, fmt.Errorf("%w %q", errUnknownMethod, method)
	}
}

// errUnknownMethod is a request for a method the daemon does not serve.
var errUnknownMethod = errors.New("rpc: unknown method")

// gen_trace allocates what the peer asks for (40 B per packet generated
// plus 36 B per frame encoded), so both sizes are bounded; a larger
// workload comes from a file through load_trace, which maps it instead.
const (
	maxGenFlows   = 1 << 22
	maxGenPackets = 1 << 24
)

// rangeError reports a peer-supplied size outside what the daemon serves.
type rangeError struct {
	param       string
	got, lo, hi int
}

func (e *rangeError) Error() string {
	return fmt.Sprintf("rpc: %s %d out of range [%d, %d]", e.param, e.got, e.lo, e.hi)
}

func checkRange(param string, got, lo, hi int) error {
	if got < lo || got > hi {
		return &rangeError{param: param, got: got, lo: lo, hi: hi}
	}
	return nil
}

// setTrace installs tr as the loaded workload and releases the one it
// replaces, waiting out any replay still draining it.
func (s *Server) setTrace(tr *mmtrace.Trace) {
	s.mu.Lock()
	old := s.tr
	s.tr = tr
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

func taskResult(t *controlplane.Task) TaskResult {
	return TaskResult{
		ID:          t.ID,
		Name:        t.Spec.Name,
		Algorithm:   t.Algorithm.String(),
		D:           t.D,
		Groups:      t.Groups,
		Buckets:     t.Buckets,
		MemoryBytes: t.MemoryBytes(),
		Delay:       t.Delay,
		Fingerprint: t.Fingerprint,
	}
}
