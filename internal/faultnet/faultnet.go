// Package faultnet is a fault-injecting transport for exercising the
// control channel under adverse network conditions. It wraps net.Conn and
// net.Listener with a seeded, deterministic fault Plan — per-direction
// delays, injected connection resets, partial writes, and corrupt or
// truncated frames — so any test in the repo can assert that a component
// survives the fault taxonomy of DESIGN.md §11 without depending on a real
// lossy network. MemListener is the socket-free link the same wrappers
// apply to: an in-memory net.Listener with its own Dial.
//
// Determinism: every wrapped connection draws faults from its own
// math/rand stream seeded from Plan.Seed and a per-connection ordinal, so
// a fixed (Plan, connection order) always yields the same fault sequence.
// Wall-clock interleaving across goroutines is of course not fixed, but
// the decisions (which op is delayed, reset, corrupted) are.
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjectedReset is returned by a wrapped connection when the Plan
// injects a connection reset. The underlying connection is closed, so the
// peer observes EOF/ECONNRESET.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// Gate is a runtime-switchable partition control shared by every
// connection whose Plan references it. Unlike the static fault schedule,
// a Gate models *link state*: a drill flips it mid-run to partition, heal,
// or flap a peer while traffic and liveness sessions keep running.
//
// The two directions are independent, which is the asymmetric (one-way)
// partition mode: with only DropWrites set, a daemon still hears requests
// but its answers vanish — the classic "I can hear you, you can't hear me"
// failure that RPC-timeout health checks misclassify and BFD-style
// sessions catch. Dropped writes report success to the writer (a true
// blackhole, not a reset); dropped reads discard whatever arrives and keep
// waiting, so the reader sees silence until its deadline fires.
type Gate struct {
	dropReads  atomic.Bool
	dropWrites atomic.Bool
}

// SetDropReads blackholes (true) or heals (false) the read direction of
// every connection wearing this gate.
func (g *Gate) SetDropReads(v bool) { g.dropReads.Store(v) }

// SetDropWrites blackholes (true) or heals (false) the write direction.
func (g *Gate) SetDropWrites(v bool) { g.dropWrites.Store(v) }

// Partition blackholes both directions; Heal restores both.
func (g *Gate) Partition() { g.dropReads.Store(true); g.dropWrites.Store(true) }

// Heal restores both directions.
func (g *Gate) Heal() { g.dropReads.Store(false); g.dropWrites.Store(false) }

// Dropped reports the current drop state (reads, writes).
func (g *Gate) Dropped() (reads, writes bool) {
	return g.dropReads.Load(), g.dropWrites.Load()
}

// Plan is a deterministic fault schedule. The zero value injects nothing.
// Probabilities are per I/O operation; *Every fields fire on every Nth
// operation (counted per connection, reads and writes separately), which
// gives tests hard guarantees ("every 5th op resets") that probabilistic
// plans cannot.
type Plan struct {
	Seed int64 // base seed; connection i uses Seed*1048583 + i

	// Delays: each read/write sleeps a uniform duration in [0, max].
	ReadDelay  time.Duration
	WriteDelay time.Duration

	// Resets: close the underlying conn and fail the op.
	ResetProb   float64 // per-op probability
	ResetEvery  int     // every Nth op (0 = never); counted across reads+writes
	ResetAfterN int64   // after N total bytes have crossed this conn (0 = never)

	// Write-side frame damage.
	PartialWrites bool    // split writes into random chunks (still delivers all bytes)
	CorruptProb   float64 // flip one byte of the buffer before writing
	CorruptEvery  int     // every Nth write (0 = never)
	TruncateProb  float64 // write a strict prefix, then inject a reset

	// Gate, when set, adds runtime-switchable directional blackholes on top
	// of the static schedule (shared across every connection using this
	// plan — flip it mid-test to partition/heal/flap the link).
	Gate *Gate
}

func (p Plan) active() bool {
	return p.ReadDelay > 0 || p.WriteDelay > 0 || p.ResetProb > 0 || p.ResetEvery > 0 ||
		p.ResetAfterN > 0 || p.PartialWrites || p.CorruptProb > 0 || p.CorruptEvery > 0 ||
		p.TruncateProb > 0 || p.Gate != nil
}

// Conn wraps a net.Conn with fault injection.
type Conn struct {
	net.Conn
	plan Plan

	mu     sync.Mutex // guards rng and counters (reads/writes may be concurrent)
	rng    *rand.Rand
	ops    int   // total I/O ops, for *Every schedules
	writes int   // write ops, for CorruptEvery
	bytes  int64 // total bytes crossed, for ResetAfterN
}

// WrapConn applies plan to conn using the stream for connection ordinal
// ordinal (pass 0 if only one connection is wrapped).
func WrapConn(conn net.Conn, plan Plan, ordinal int64) *Conn {
	return &Conn{
		Conn: conn,
		plan: plan,
		rng:  rand.New(rand.NewSource(plan.Seed*1048583 + ordinal)),
	}
}

// decide runs under c.mu and returns the fault decisions for one op.
func (c *Conn) decide(isWrite bool, n int) (delay time.Duration, reset, corrupt bool, truncateAt int) {
	c.ops++
	if isWrite {
		c.writes++
	}
	max := c.plan.ReadDelay
	if isWrite {
		max = c.plan.WriteDelay
	}
	if max > 0 {
		delay = time.Duration(c.rng.Int63n(int64(max) + 1))
	}
	if c.plan.ResetEvery > 0 && c.ops%c.plan.ResetEvery == 0 {
		reset = true
	}
	if c.plan.ResetProb > 0 && c.rng.Float64() < c.plan.ResetProb {
		reset = true
	}
	if c.plan.ResetAfterN > 0 && c.bytes >= c.plan.ResetAfterN {
		reset = true
	}
	if isWrite {
		if c.plan.CorruptEvery > 0 && c.writes%c.plan.CorruptEvery == 0 {
			corrupt = true
		}
		if c.plan.CorruptProb > 0 && c.rng.Float64() < c.plan.CorruptProb {
			corrupt = true
		}
		truncateAt = -1
		if c.plan.TruncateProb > 0 && n > 1 && c.rng.Float64() < c.plan.TruncateProb {
			truncateAt = 1 + c.rng.Intn(n-1)
		}
	} else {
		truncateAt = -1
	}
	return delay, reset, corrupt, truncateAt
}

// inject closes the underlying conn so the peer sees a reset-like failure.
func (c *Conn) inject() error {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0) // RST, not FIN: the peer sees ECONNRESET
	}
	c.Conn.Close()
	return ErrInjectedReset
}

func (c *Conn) Read(b []byte) (int, error) {
	if !c.plan.active() {
		return c.Conn.Read(b)
	}
	if g := c.plan.Gate; g != nil && g.dropReads.Load() {
		// Blackholed direction: whatever arrives is discarded, and the
		// reader keeps waiting — it sees pure silence until its own
		// deadline fires or the connection dies, exactly like a one-way
		// partition. Healing mid-wait resumes delivery with the next frame
		// (bytes discarded during the outage are lost, as on a real link).
		scratch := make([]byte, 4096)
		for g.dropReads.Load() {
			if _, err := c.Conn.Read(scratch); err != nil {
				return 0, err
			}
		}
	}
	c.mu.Lock()
	delay, reset, _, _ := c.decide(false, len(b))
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if reset {
		return 0, c.inject()
	}
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.bytes += int64(n)
	c.mu.Unlock()
	return n, err
}

func (c *Conn) Write(b []byte) (int, error) {
	if !c.plan.active() {
		return c.Conn.Write(b)
	}
	if g := c.plan.Gate; g != nil && g.dropWrites.Load() {
		// Blackholed direction: report success without delivering — the
		// peer never sees these bytes and no error surfaces to the writer
		// (dropped bytes do not count toward ResetAfterN: they never
		// crossed the link).
		return len(b), nil
	}
	c.mu.Lock()
	delay, reset, corrupt, truncateAt := c.decide(true, len(b))
	var chunks []int
	if c.plan.PartialWrites && len(b) > 1 {
		// Pre-draw the chunk boundaries under the lock for determinism.
		rem := len(b)
		for rem > 1 {
			n := 1 + c.rng.Intn(rem)
			chunks = append(chunks, n)
			rem -= n
		}
		if rem > 0 {
			chunks = append(chunks, rem)
		}
	}
	var corruptAt int
	if corrupt && len(b) > 0 {
		corruptAt = c.rng.Intn(len(b))
	}
	c.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	if reset {
		return 0, c.inject()
	}
	if corrupt && len(b) > 0 {
		// Never mutate the caller's buffer: bufio reuses it.
		dup := make([]byte, len(b))
		copy(dup, b)
		dup[corruptAt] ^= 0x5a
		if dup[corruptAt] == '\n' { // keep framing intact; damage the payload
			dup[corruptAt] = '#'
		}
		b = dup
	}
	if truncateAt >= 0 && truncateAt < len(b) {
		n, err := c.Conn.Write(b[:truncateAt])
		if err != nil {
			return n, err
		}
		c.mu.Lock()
		c.bytes += int64(n)
		c.mu.Unlock()
		return n, c.inject()
	}
	if len(chunks) > 0 {
		total := 0
		for _, n := range chunks {
			w, err := c.Conn.Write(b[total : total+n])
			total += w
			c.mu.Lock()
			c.bytes += int64(w)
			c.mu.Unlock()
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}
	n, err := c.Conn.Write(b)
	c.mu.Lock()
	c.bytes += int64(n)
	c.mu.Unlock()
	return n, err
}

// Listener wraps a net.Listener; every accepted connection gets the Plan
// with a fresh deterministic stream.
type Listener struct {
	net.Listener
	plan Plan
	next atomic.Int64
}

// WrapListener applies plan to every connection ln accepts.
func WrapListener(ln net.Listener, plan Plan) *Listener {
	return &Listener{Listener: ln, plan: plan}
}

func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return WrapConn(conn, l.plan, l.next.Add(1)), nil
}

// Dialer produces fault-injected client-side connections.
type Dialer struct {
	Plan    Plan
	Timeout time.Duration // per-dial timeout (0 = net default)
	next    atomic.Int64
}

// Dial connects and wraps the connection with the Dialer's plan.
func (d *Dialer) Dial(network, addr string) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, d.Timeout)
	if err != nil {
		return nil, err
	}
	return WrapConn(conn, d.Plan, d.next.Add(1)), nil
}

// MemListener is an in-memory net.Listener: Dial hands Accept one end of a
// synchronous net.Pipe, so a server and its clients in one process speak
// the full wire protocol (deadlines included) without a socket. It wraps
// like any listener — WrapListener(NewMemListener(..), plan) puts a fault
// Plan or a Gate on an in-memory link.
type MemListener struct {
	addr  memAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

type memAddr string

func (memAddr) Network() string  { return "mem" }
func (a memAddr) String() string { return string(a) }

// NewMemListener returns a listening in-memory endpoint whose Addr reads
// "mem:<name>".
func NewMemListener(name string) *MemListener {
	return &MemListener{addr: memAddr("mem:" + name), conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *MemListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close refuses further dials and unblocks Accept. Accepted connections
// stay open, as on a TCP listener.
func (l *MemListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *MemListener) Addr() net.Addr { return l.addr }

// Dial connects to the listener; it has the shape of rpc.Options.Dialer
// (the address is ignored: the listener is the address). A closed listener
// refuses; one nobody accepts on times out (timeout 0 = wait).
func (l *MemListener) Dial(_ string, timeout time.Duration) (net.Conn, error) {
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: l.addr, Err: errors.New("connection refused")}
	case <-expired:
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: l.addr, Err: os.ErrDeadlineExceeded}
	}
}
