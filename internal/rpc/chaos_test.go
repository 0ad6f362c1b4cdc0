package rpc

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/faultnet"
	"flymon/internal/packet"
)

// chaosServer boots a real daemon whose accepted connections run under the
// fault plan, and returns its address.
func chaosServer(t *testing.T, plan faultnet.Plan) string {
	t.Helper()
	ctrl := controlplane.NewController(controlplane.Config{Groups: 3, Buckets: 8192, BitWidth: 32})
	t.Cleanup(ctrl.Close)
	srv := NewServer(ctrl, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(faultnet.WrapListener(ln, plan))
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func TestCallTimeoutOnHungDaemon(t *testing.T) {
	check := gateGoroutines(t)
	t.Cleanup(check)
	// A daemon that accepts and then never answers: the archetypal wedge.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the conn open, read nothing
		}
	}()
	opts := testOpts()
	opts.CallTimeout = 200 * time.Millisecond
	c, err := DialOptions(ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	err = c.Ping()
	if err == nil {
		t.Fatal("ping against a hung daemon must fail")
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("error type = %T (%v), want TransportError", err, err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("timeout took %v — deadline not applied", el)
	}
	// The client mutex must not be wedged: an immediate second call also
	// completes (it reconnects, hangs, and times out again).
	start = time.Now()
	if err := c.Ping(); err == nil {
		t.Fatal("second ping must also fail")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("second call took %v — client wedged", el)
	}
}

func TestBreakerFailsFastAndRecovers(t *testing.T) {
	check := gateGoroutines(t)
	t.Cleanup(check)
	ctrl := controlplane.NewController(controlplane.Config{Groups: 3, Buckets: 8192, BitWidth: 32})
	t.Cleanup(ctrl.Close)
	srv := NewServer(ctrl, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.BreakerThreshold = 2
	opts.BreakerCooldown = 150 * time.Millisecond
	c, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// Kill the daemon: two failures open the circuit.
	srv.Close()
	for i := 0; i < 2; i++ {
		if err := c.Ping(); err == nil {
			t.Fatal("ping against a dead daemon must fail")
		}
	}
	if st, n := c.BreakerState(); st != BreakerOpen || n < 2 {
		t.Fatalf("breaker = %v after %d failures", st, n)
	}
	// While open, calls fail fast without touching the network.
	start := time.Now()
	err = c.Ping()
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-circuit error = %v", err)
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("open-circuit call took %v, want instant", el)
	}

	// Daemon comes back; after the cooldown a half-open probe reconnects.
	srv2 := NewServer(ctrl, nil)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { srv2.Close() })
	time.Sleep(opts.BreakerCooldown + 50*time.Millisecond)
	if err := c.Ping(); err != nil {
		t.Fatalf("probe after cooldown = %v", err)
	}
	if st, _ := c.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker = %v after recovery", st)
	}
}

func TestServerSurvivesPanicAndGarbage(t *testing.T) {
	check := gateGoroutines(t)
	t.Cleanup(check)
	_, c := startServer(t)
	// A panicking handler becomes an error Response on the same conn...
	var r BoolResult
	err := c.call(MethodDebugPanic, nil, &r)
	if err == nil || !strings.Contains(err.Error(), "internal error") {
		t.Fatalf("debug_panic error = %v", err)
	}
	// ...and the daemon (and even this connection) keeps serving.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after panic: %v", err)
	}
	// Raw garbage on a fresh connection must not take the daemon down.
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("\x00\xff garbage that is not a frame\n{]\n"))
	conn.Close()
	time.Sleep(20 * time.Millisecond)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after garbage conn: %v", err)
	}
}

func TestDispatchRecoversPanicResponse(t *testing.T) {
	ctrl := controlplane.NewController(controlplane.Config{Groups: 3, Buckets: 8192, BitWidth: 32})
	t.Cleanup(ctrl.Close)
	srv := NewServer(ctrl, nil)
	resp, _ := srv.dispatch(&Request{ID: 11, Method: MethodDebugPanic})
	if resp.ID != 11 {
		t.Fatalf("response ID = %d", resp.ID)
	}
	if resp.Error == nil || !strings.Contains(resp.Error.Msg, "internal error") || !strings.Contains(resp.Error.Msg, "fault drill") {
		t.Fatalf("panic response = %+v", resp)
	}
	if resp.Result != nil {
		t.Fatal("panic response must carry no result")
	}
}

// TestChaosSeedMatrix is the headline chaos run: a real daemon behind a
// transport injecting delays, resets, and corrupt frames, driven through a
// realistic workload. Every idempotent path must recover via
// reconnect+retry; mutations may fail but only with a TransportError the
// caller can reconcile (which the test does, the way RemoteFleet would).
func TestChaosSeedMatrix(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			check := gateGoroutines(t)
			t.Cleanup(check)
			addr := chaosServer(t, faultnet.Plan{
				Seed:          seed,
				ReadDelay:     2 * time.Millisecond,
				WriteDelay:    2 * time.Millisecond,
				ResetEvery:    13,
				CorruptEvery:  17,
				PartialWrites: true,
			})
			opts := testOpts()
			opts.CallTimeout = 2 * time.Second
			opts.MaxRetries = 6
			opts.Seed = seed
			c, err := DialOptions(addr, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// Install one task, reconciling ambiguous transport failures
			// by re-reading state (the documented contract for mutations).
			var taskID int
			for attempt := 0; ; attempt++ {
				if attempt > 20 {
					t.Fatal("could not install task in 20 attempts")
				}
				res, err := c.AddTask(freqSpec("chaos"))
				if err == nil {
					taskID = res.ID
					break
				}
				var te *TransportError
				if !errors.As(err, &te) {
					t.Fatalf("AddTask application error: %v", err)
				}
				tasks, lerr := c.ListTasks() // idempotent: auto-retried
				if lerr != nil {
					t.Fatalf("ListTasks while reconciling: %v", lerr)
				}
				if len(tasks) == 1 {
					taskID = tasks[0].ID
					break
				}
			}

			// Every idempotent call must succeed despite injected faults.
			for i := 0; i < 40; i++ {
				switch i % 4 {
				case 0:
					if err := c.Ping(); err != nil {
						t.Fatalf("op %d ping: %v", i, err)
					}
				case 1:
					if _, err := c.ReadRegisters(taskID); err != nil {
						t.Fatalf("op %d read_registers: %v", i, err)
					}
				case 2:
					if _, err := c.Estimate(taskID, packet.CanonicalKey{byte(i)}); err != nil {
						t.Fatalf("op %d estimate: %v", i, err)
					}
				case 3:
					if _, err := c.Stats(); err != nil {
						t.Fatalf("op %d stats: %v", i, err)
					}
				}
			}
			if st, _ := c.BreakerState(); st == BreakerOpen {
				t.Fatal("breaker left open after a fully recovered run")
			}
		})
	}
}

// TestChaosConcurrentCallers hammers one resilient client from several
// goroutines through a faulty transport: calls serialize on the client
// mutex, and none may wedge or leak.
func TestChaosConcurrentCallers(t *testing.T) {
	check := gateGoroutines(t)
	t.Cleanup(check)
	addr := chaosServer(t, faultnet.Plan{Seed: 4, ResetEvery: 19, WriteDelay: time.Millisecond})
	opts := testOpts()
	opts.MaxRetries = 6
	c, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 15; i++ {
				if err := c.Ping(); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("concurrent callers wedged")
		}
	}
}
