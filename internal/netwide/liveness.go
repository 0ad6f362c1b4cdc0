// Liveness: BFD-style async keepalive sessions over the control channel.
//
// Each remote switch gets one session — its own connection, its own
// Down/Init/Up three-way state machine, hellos at a jittered tx interval —
// so a dead or silently-partitioned flymond is detected in a few tx
// intervals (hundreds of milliseconds) instead of an RPC timeout, and a
// flapping one is held out of service by damping instead of bouncing the
// fleet. The state machine itself (sessionSM) is pure and clock-injected:
// every transition rule is unit-testable without goroutines or sleeping.
// A thin runner goroutine per switch drives it against the wire.
package netwide

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"flymon/internal/rpc"
)

// SessionState is a liveness session's position in the BFD-style
// handshake.
type SessionState int

const (
	SessionDown SessionState = iota
	SessionInit
	SessionUp
)

func (s SessionState) String() string {
	switch s {
	case SessionDown:
		return "down"
	case SessionInit:
		return "init"
	case SessionUp:
		return "up"
	default:
		return fmt.Sprintf("SessionState(%d)", int(s))
	}
}

// wireState maps a session state to its control-channel encoding.
func (s SessionState) wireState() int {
	switch s {
	case SessionInit:
		return rpc.HelloStateInit
	case SessionUp:
		return rpc.HelloStateUp
	default:
		return rpc.HelloStateDown
	}
}

// LivenessOptions tunes the per-switch keepalive sessions. The zero value
// of any field selects the default.
type LivenessOptions struct {
	// TxInterval is the hello cadence (default 100ms). Each send is
	// jittered into [(1-Jitter)·Tx, Tx] so a fleet of sessions does not
	// probe in lockstep.
	TxInterval time.Duration
	// DetectMult is the detection-time multiplier: a session with no good
	// reply for DetectMult×TxInterval is declared Down (default 3).
	DetectMult int
	// Jitter is the fraction of TxInterval randomized away per send
	// (default 0.25, BFD's convention; 0 < Jitter < 1).
	Jitter float64
	// FlapThreshold Down-transitions within FlapWindow arm flap damping:
	// the session must then stay Up for HoldDown before it is *reported*
	// Up again. Defaults: 3 flaps within 32×TxInterval, hold-down
	// 8×TxInterval.
	FlapThreshold int
	FlapWindow    time.Duration
	HoldDown      time.Duration
	// CallTimeout bounds one hello round trip (default DetectMult×Tx —
	// a hung daemon costs at most one detection interval per probe).
	CallTimeout time.Duration
	// Dial builds a session's dedicated client (sessions never share the
	// operation connection: a long register readout must not delay a
	// hello past its detection time). nil = plain TCP with timeouts
	// derived from the options. Tests inject fault-wrapped dialers here.
	Dial func(addr string) (*rpc.Client, error)
	// Seed fixes the jitter streams (0 = from the clock).
	Seed int64
}

func (o LivenessOptions) withDefaults() LivenessOptions {
	if o.TxInterval <= 0 {
		o.TxInterval = 100 * time.Millisecond
	}
	if o.DetectMult <= 0 {
		o.DetectMult = 3
	}
	if o.Jitter <= 0 || o.Jitter >= 1 {
		o.Jitter = 0.25
	}
	if o.FlapThreshold <= 0 {
		o.FlapThreshold = 3
	}
	if o.FlapWindow <= 0 {
		o.FlapWindow = 32 * o.TxInterval
	}
	if o.HoldDown <= 0 {
		o.HoldDown = 8 * o.TxInterval
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = time.Duration(o.DetectMult) * o.TxInterval
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	if o.Dial == nil {
		opts := rpc.Options{
			DialTimeout:      o.CallTimeout,
			CallTimeout:      o.CallTimeout,
			MaxRetries:       -1,      // the state machine owns failure handling
			BreakerThreshold: 1 << 30, // ditto: sessions must keep probing
			Seed:             o.Seed,
		}
		o.Dial = func(addr string) (*rpc.Client, error) {
			return rpc.DialOptions(addr, opts)
		}
	}
	return o
}

// DetectTime is the configured detection interval (DetectMult×TxInterval).
func (o LivenessOptions) DetectTime() time.Duration {
	o = o.withDefaults()
	return time.Duration(o.DetectMult) * o.TxInterval
}

// SessionSnapshot is one session's observable state.
type SessionSnapshot struct {
	Switch              int
	Addr                string
	State               SessionState
	ReportedUp          bool // Up and not held down by damping
	Damped              bool
	ConsecutiveFailures int // hello transport failures since the last good reply
	Transitions         uint64
	LastTransition      time.Time
	LastReply           time.Time
	Incarnation         int64
	RemoteTasks         int
	DetectTime          time.Duration
}

// sessionEvent describes what one state-machine step changed.
type sessionEvent struct {
	StateChanged    bool
	From, To        SessionState
	ReportedChanged bool
	ReportedUp      bool
	Restarted       bool          // the daemon's incarnation changed
	DetectionTime   time.Duration // set on a timeout-driven Down: last reply → detection
}

// sessionSM is the pure BFD-style session state machine. All methods take
// the current time explicitly; nothing here sleeps, ticks, or touches the
// network.
type sessionSM struct {
	detect        time.Duration
	holdDown      time.Duration
	flapWindow    time.Duration
	flapThreshold int

	state       SessionState
	reportedUp  bool
	fails       int
	transitions uint64
	lastChange  time.Time
	lastReply   time.Time // last good reply (any remote state)
	upSince     time.Time
	downs       []time.Time // recent transitions to Down, pruned to flapWindow
	incarnation int64
	remoteTasks int
}

func newSessionSM(o LivenessOptions) *sessionSM {
	return &sessionSM{
		detect:        time.Duration(o.DetectMult) * o.TxInterval,
		holdDown:      o.HoldDown,
		flapWindow:    o.FlapWindow,
		flapThreshold: o.FlapThreshold,
		state:         SessionDown,
	}
}

// transition moves the machine to st, recording flap history.
func (s *sessionSM) transition(st SessionState, now time.Time, ev *sessionEvent) {
	if s.state == st {
		return
	}
	ev.StateChanged = true
	ev.From, ev.To = s.state, st
	s.state = st
	s.transitions++
	s.lastChange = now
	switch st {
	case SessionDown:
		s.downs = append(s.downs, now)
		s.pruneFlaps(now)
	case SessionUp:
		s.upSince = now
	}
}

func (s *sessionSM) pruneFlaps(now time.Time) {
	kept := s.downs[:0]
	for _, t := range s.downs {
		if now.Sub(t) <= s.flapWindow {
			kept = append(kept, t)
		}
	}
	s.downs = kept
}

// damped reports whether flap damping currently holds the session out of
// service: enough recent Down-transitions that Up must be sustained for
// the hold-down period before it counts.
func (s *sessionSM) damped(now time.Time) bool {
	if s.state != SessionUp {
		return false
	}
	s.pruneFlaps(now)
	return len(s.downs) >= s.flapThreshold && now.Sub(s.upSince) < s.holdDown
}

// refresh re-evaluates the derived reported-Up signal (damping expiry and
// detect timeouts are time-driven, not event-driven).
func (s *sessionSM) refresh(now time.Time, ev *sessionEvent) {
	if s.state != SessionDown && !s.lastReply.IsZero() && now.Sub(s.lastReply) >= s.detect {
		// Detection: the peer has been silent for the full detection
		// interval. Record the latency from the last good reply — the
		// number the detection-time histogram tracks.
		ev.DetectionTime = now.Sub(s.lastReply)
		s.transition(SessionDown, now, ev)
	}
	up := s.state == SessionUp && !s.damped(now)
	if up != s.reportedUp {
		s.reportedUp = up
		ev.ReportedChanged = true
	}
	ev.ReportedUp = s.reportedUp
}

// onReply folds one successful hello round trip: the daemon answered with
// its session state and incarnation.
func (s *sessionSM) onReply(remote int, incarnation int64, tasks int, now time.Time) sessionEvent {
	var ev sessionEvent
	s.fails = 0
	s.lastReply = now
	s.remoteTasks = tasks
	if s.incarnation != 0 && incarnation != s.incarnation && s.state == SessionUp {
		// The daemon restarted between probes: its state is gone even
		// though it answers promptly. Tear the session down so the rejoin
		// is explicit.
		ev.Restarted = true
		s.transition(SessionDown, now, &ev)
	}
	s.incarnation = incarnation
	switch remote {
	case rpc.HelloStateDown:
		switch s.state {
		case SessionDown:
			s.transition(SessionInit, now, &ev)
		case SessionUp:
			// The peer reset (it no longer remembers our session): restart
			// the handshake.
			s.transition(SessionDown, now, &ev)
		}
	case rpc.HelloStateInit:
		if s.state != SessionUp {
			s.transition(SessionUp, now, &ev)
		}
	case rpc.HelloStateUp:
		if s.state == SessionInit {
			s.transition(SessionUp, now, &ev)
		}
		// Down + remote Up: ignore — the peer must see our Down and
		// re-init first (matches BFD's receive rules).
	}
	s.refresh(now, &ev)
	return ev
}

// onFail folds one hello transport failure. Failures alone never flip the
// state — detection is time-based (refresh) so one lost probe under jitter
// or load is not a false Down.
func (s *sessionSM) onFail(now time.Time) sessionEvent {
	var ev sessionEvent
	s.fails++
	if s.lastReply.IsZero() {
		// Never heard from the peer: stay Down; nothing to detect.
		s.refresh(now, &ev)
		return ev
	}
	s.refresh(now, &ev)
	return ev
}

func (s *sessionSM) snapshot(now time.Time) SessionSnapshot {
	return SessionSnapshot{
		State:               s.state,
		ReportedUp:          s.reportedUp,
		Damped:              s.damped(now),
		ConsecutiveFailures: s.fails,
		Transitions:         s.transitions,
		LastTransition:      s.lastChange,
		LastReply:           s.lastReply,
		Incarnation:         s.incarnation,
		RemoteTasks:         s.remoteTasks,
		DetectTime:          s.detect,
	}
}

// liveSession is one switch's running session: the pure machine plus its
// dedicated connection and runner goroutine.
type liveSession struct {
	idx  int
	addr string
	id   string // wire discriminator, unique per session instance

	mu  sync.Mutex
	sm  *sessionSM
	cli *rpc.Client
}

// LivenessManager runs one keepalive session per address (flymonctl watch
// probes a fleet with one) and reports them through Snapshot.
type LivenessManager struct {
	opts  LivenessOptions
	addrs []string

	sessions []*liveSession
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// sessionSeq makes wire discriminators unique across manager instances in
// one process (tests run many).
var sessionSeq struct {
	sync.Mutex
	n int
}

// NewLivenessManager builds (but does not start) sessions for addrs.
func NewLivenessManager(addrs []string, opts LivenessOptions) *LivenessManager {
	opts = opts.withDefaults()
	sessionSeq.Lock()
	sessionSeq.n++
	gen := sessionSeq.n
	sessionSeq.Unlock()
	m := &LivenessManager{opts: opts, addrs: addrs, stop: make(chan struct{})}
	for i, addr := range addrs {
		m.sessions = append(m.sessions, &liveSession{
			idx:  i,
			addr: addr,
			id:   fmt.Sprintf("flymon-%d-%d-%d", opts.Seed, gen, i),
			sm:   newSessionSM(opts),
		})
	}
	return m
}

// Start launches one runner goroutine per session.
func (m *LivenessManager) Start() {
	for _, ls := range m.sessions {
		m.wg.Add(1)
		go m.run(ls)
	}
}

// Stop terminates every session runner and closes their connections.
func (m *LivenessManager) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// Snapshot returns every session's current state.
func (m *LivenessManager) Snapshot() []SessionSnapshot {
	now := time.Now()
	out := make([]SessionSnapshot, len(m.sessions))
	for i, ls := range m.sessions {
		ls.mu.Lock()
		s := ls.sm.snapshot(now)
		ls.mu.Unlock()
		s.Switch = ls.idx
		s.Addr = ls.addr
		out[i] = s
	}
	return out
}

// run is one session's send loop: hello, fold the outcome, sleep a
// jittered tx interval, repeat.
func (m *LivenessManager) run(ls *liveSession) {
	defer m.wg.Done()
	defer func() {
		ls.mu.Lock()
		if ls.cli != nil {
			ls.cli.Close()
			ls.cli = nil
		}
		ls.mu.Unlock()
	}()
	rng := rand.New(rand.NewSource(m.opts.Seed + int64(ls.idx)*7919))
	timer := time.NewTimer(0) // first hello immediately
	defer timer.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-timer.C:
		}
		m.helloOnce(ls)
		// Jitter: [(1-j)·Tx, Tx], per BFD convention.
		tx := m.opts.TxInterval
		d := tx - time.Duration(rng.Int63n(int64(float64(tx)*m.opts.Jitter)+1))
		timer.Reset(d)
	}
}

// helloOnce performs one probe round: (re)dial if needed, send the local
// state, fold the reply or failure into the machine.
func (m *LivenessManager) helloOnce(ls *liveSession) {
	ls.mu.Lock()
	cli := ls.cli
	state := ls.sm.state
	ls.mu.Unlock()

	var (
		res     rpc.HelloResult
		callErr error
	)
	if cli == nil {
		c, err := m.opts.Dial(ls.addr)
		if err != nil {
			callErr = err
		} else {
			cli = c
			ls.mu.Lock()
			ls.cli = cli
			ls.mu.Unlock()
		}
	}
	if callErr == nil {
		res, callErr = cli.Hello(ls.id, state.wireState(), m.opts.TxInterval)
	}
	now := time.Now()

	ls.mu.Lock()
	defer ls.mu.Unlock()
	if callErr != nil {
		ls.sm.onFail(now)
	} else {
		ls.sm.onReply(res.State, res.Incarnation, res.Tasks, now)
	}
}
