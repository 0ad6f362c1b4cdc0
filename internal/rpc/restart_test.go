package rpc

import (
	"errors"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/packet"
)

// Tests for a client surviving a GENUINE daemon restart: same address, new
// process state (fresh controller, fresh incarnation) — not just a dropped
// connection. This is the exact sequence the fleet reconciler depends on.

func restartConfig() controlplane.Config {
	return controlplane.Config{Groups: 3, Buckets: 4096, BitWidth: 32}
}

func TestClientReconnectsAcrossServerRestart(t *testing.T) {
	cfg := restartConfig()
	ctrl := controlplane.NewController(cfg)
	t.Cleanup(ctrl.Close)
	srv := NewServer(ctrl, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inc1 := srv.Incarnation()

	c, err := DialOptions(addr, Options{
		DialTimeout:      time.Second,
		CallTimeout:      time.Second,
		MaxRetries:       -1,
		BreakerThreshold: 2,
		BreakerCooldown:  150 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	spec := controlplane.TaskSpec{Name: "before", Key: packet.KeyFiveTuple,
		Attribute: controlplane.AttrFrequency, MemBuckets: 1024, D: 2}
	if res, err := c.AddTask(spec); err != nil || res.ID != 1 {
		t.Fatalf("add on first incarnation: id=%d err=%v", res.ID, err)
	}

	// The daemon dies. Consecutive failures open the breaker...
	srv.Close()
	for i := 0; i < 2; i++ {
		if err := c.Ping(); err == nil {
			t.Fatal("ping succeeded against a dead daemon")
		}
	}
	if st, _ := c.BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker = %v after threshold failures, want open", st)
	}
	// ...and while open, calls fail FAST with ErrCircuitOpen (no dial, no
	// timeout burned).
	start := time.Now()
	err = c.Ping()
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("call under open breaker = %v, want ErrCircuitOpen", err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("open-breaker call took %v, want fail-fast", el)
	}

	// A genuinely new process takes over the address: fresh controller
	// (empty task table), fresh incarnation.
	ctrl2 := controlplane.NewController(cfg)
	t.Cleanup(ctrl2.Close)
	srv2 := NewServer(ctrl2, nil)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if srv2.Incarnation() == inc1 {
		t.Fatal("restarted server kept the old incarnation")
	}

	// After the cooldown the half-open probe is admitted, succeeds against
	// the new process, and closes the breaker.
	time.Sleep(200 * time.Millisecond)
	if err := c.Ping(); err != nil {
		t.Fatalf("half-open probe after restart: %v", err)
	}
	if st, _ := c.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker = %v after successful probe, want closed", st)
	}

	// The client is talking to the NEW state: the task table is empty and
	// IDs restart from 1.
	tasks, err := c.ListTasks()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 0 {
		t.Fatalf("restarted daemon reports %d tasks, want 0", len(tasks))
	}
	spec.Name = "after"
	if res, err := c.AddTask(spec); err != nil || res.ID != 1 {
		t.Fatalf("add on second incarnation: id=%d err=%v", res.ID, err)
	}
}

// TestHelloUnmasksRestart drives the wire-level liveness handshake across
// a restart: the daemon's answer goes back to Down with a new incarnation,
// exactly the signal the controller-side session uses to tear down.
func TestHelloUnmasksRestart(t *testing.T) {
	cfg := restartConfig()
	ctrl := controlplane.NewController(cfg)
	t.Cleanup(ctrl.Close)
	srv := NewServer(ctrl, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialOptions(addr, Options{
		DialTimeout: time.Second, CallTimeout: time.Second,
		MaxRetries: -1, BreakerThreshold: 1000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Three-way handshake against the first incarnation.
	r1, err := c.Hello("s1", HelloStateDown, 20*time.Millisecond)
	if err != nil || r1.State != HelloStateInit {
		t.Fatalf("hello(down) = %+v, %v; want init", r1, err)
	}
	r2, err := c.Hello("s1", HelloStateInit, 20*time.Millisecond)
	if err != nil || r2.State != HelloStateUp {
		t.Fatalf("hello(init) = %+v, %v; want up", r2, err)
	}
	if r2.Incarnation != r1.Incarnation || r2.Incarnation == 0 {
		t.Fatalf("incarnation unstable within one process: %d vs %d", r1.Incarnation, r2.Incarnation)
	}

	// Restart. The new process has no session state and a new incarnation:
	// our Up is answered with Down (the daemon-side machine refuses to jump
	// to Up for a session it never initialized).
	srv.Close()
	ctrl2 := controlplane.NewController(cfg)
	t.Cleanup(ctrl2.Close)
	srv2 := NewServer(ctrl2, nil)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	var r3 HelloResult
	for i := 0; i < 3; i++ { // first call may land on the torn-down conn
		if r3, err = c.Hello("s1", HelloStateUp, 20*time.Millisecond); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("hello after restart: %v", err)
	}
	if r3.State != HelloStateDown {
		t.Fatalf("restarted daemon answered state %d, want down (%d)", r3.State, HelloStateDown)
	}
	if r3.Incarnation == r1.Incarnation {
		t.Fatal("restarted daemon kept the old incarnation")
	}
}
