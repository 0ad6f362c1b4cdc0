package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// pipePair returns two ends of a real TCP connection on loopback.
func pipePair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestZeroPlanIsTransparent(t *testing.T) {
	c, s := pipePair(t)
	wc := WrapConn(c, Plan{}, 0)
	msg := []byte("hello control channel\n")
	go func() { wc.Write(msg) }()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("got %q", buf)
	}
}

func TestPartialWritesDeliverAllBytes(t *testing.T) {
	c, s := pipePair(t)
	wc := WrapConn(c, Plan{Seed: 7, PartialWrites: true}, 0)
	msg := bytes.Repeat([]byte("abcdefgh"), 512)
	go func() {
		if _, err := wc.Write(msg); err != nil {
			t.Error(err)
		}
		wc.Close()
	}()
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("partial writes corrupted the stream: %d bytes vs %d", len(got), len(msg))
	}
}

func TestResetEveryInjectsDeterministically(t *testing.T) {
	c, _ := pipePair(t)
	wc := WrapConn(c, Plan{Seed: 1, ResetEvery: 3}, 0)
	// Ops 1 and 2 succeed, op 3 resets.
	if _, err := wc.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Write([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Write([]byte("c")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("3rd op error = %v, want injected reset", err)
	}
	// After a reset the underlying conn is closed for good.
	if _, err := wc.Write([]byte("d")); err == nil {
		t.Fatal("write after reset must fail")
	}
}

func TestResetVisibleToPeer(t *testing.T) {
	c, s := pipePair(t)
	wc := WrapConn(c, Plan{Seed: 2, ResetEvery: 1}, 0)
	if _, err := wc.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("err = %v", err)
	}
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 8)
	if _, err := s.Read(buf); err == nil {
		t.Fatal("peer must observe the reset")
	}
}

func TestCorruptEveryFlipsAByte(t *testing.T) {
	c, s := pipePair(t)
	wc := WrapConn(c, Plan{Seed: 3, CorruptEvery: 1}, 0)
	msg := []byte(`{"id":1,"method":"ping"}` + "\n")
	orig := append([]byte(nil), msg...)
	go func() { wc.Write(msg); wc.Close() }()
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg, orig) {
		t.Fatal("caller's buffer must not be mutated")
	}
	if bytes.Equal(got, orig) {
		t.Fatal("frame crossed uncorrupted")
	}
	if len(got) != len(orig) {
		t.Fatalf("corruption changed length: %d vs %d", len(got), len(orig))
	}
	if bytes.Count(got, []byte("\n")) != 1 {
		t.Fatal("corruption must not add or remove newlines")
	}
}

func TestTruncatedWriteResets(t *testing.T) {
	c, s := pipePair(t)
	wc := WrapConn(c, Plan{Seed: 5, TruncateProb: 1}, 0)
	msg := bytes.Repeat([]byte("z"), 256)
	errc := make(chan error, 1)
	go func() {
		_, err := wc.Write(msg)
		errc <- err
	}()
	got, _ := io.ReadAll(s)
	if err := <-errc; !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("err = %v", err)
	}
	if len(got) >= len(msg) {
		t.Fatalf("peer read %d bytes of a truncated %d-byte frame", len(got), len(msg))
	}
}

func TestDelaysAreBounded(t *testing.T) {
	c, s := pipePair(t)
	wc := WrapConn(c, Plan{Seed: 9, WriteDelay: 10 * time.Millisecond}, 0)
	start := time.Now()
	go func() { wc.Write([]byte("slow")); wc.Close() }()
	io.ReadAll(s)
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("delay wildly out of bounds: %v", el)
	}
}

func TestListenerWrapsAcceptedConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wln := WrapListener(ln, Plan{Seed: 4, ResetEvery: 1})
	defer wln.Close()
	go func() {
		conn, err := wln.Accept()
		if err != nil {
			return
		}
		// First server-side op resets immediately.
		conn.Write([]byte("welcome"))
		conn.Close()
	}()
	c, err := net.Dial("tcp", wln.Addr().String())
	if err != nil {
		return // the injected RST raced the handshake: fault observed
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if n, err := c.Read(buf); err == nil {
		t.Fatalf("client read %d bytes, want reset", n)
	}
}

func TestMemListenerDialAcceptClose(t *testing.T) {
	ln := NewMemListener("t")
	if _, err := ln.Dial("", 20*time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("dial with nobody accepting = %v, want a timeout", err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	client, err := ln.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	defer client.Close()
	defer server.Close()
	go client.Write([]byte("ping"))
	buf := make([]byte, 4)
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(server, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("in-memory round trip: %q, %v", buf, err)
	}
	ln.Close()
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept on a closed listener = %v", err)
	}
	if _, err := ln.Dial("", 0); err == nil {
		t.Fatal("dial on a closed listener must be refused")
	}
}

func TestDeterministicFaultSequence(t *testing.T) {
	// Two conns wrapped with the same plan+ordinal make identical decisions.
	seq := func() []bool {
		c, _ := pipePair(t)
		wc := WrapConn(c, Plan{Seed: 11, ResetProb: 0.3}, 42)
		var out []bool
		for i := 0; i < 10; i++ {
			wc.mu.Lock()
			_, reset, _, _ := wc.decide(true, 8)
			wc.mu.Unlock()
			out = append(out, reset)
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequences diverge at op %d: %v vs %v", i, a, b)
		}
	}
}

func TestGateDropWritesIsOneWayBlackhole(t *testing.T) {
	c, s := pipePair(t)
	gate := &Gate{}
	wc := WrapConn(c, Plan{Gate: gate}, 0)

	// Healed gate: bytes flow.
	if _, err := wc.Write([]byte("one\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := s.Read(buf); err != nil || string(buf[:n]) != "one\n" {
		t.Fatalf("healed read = %q, %v", buf[:n], err)
	}

	// Dropped writes: the writer sees SUCCESS (a true blackhole, not a
	// reset) but the peer sees silence until its deadline fires.
	gate.SetDropWrites(true)
	if n, err := wc.Write([]byte("two\n")); err != nil || n != 4 {
		t.Fatalf("blackholed write = %d, %v; want reported success", n, err)
	}
	s.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if n, err := s.Read(buf); err == nil {
		t.Fatalf("peer read %q through a blackholed direction", buf[:n])
	} else if !errors.Is(err, io.EOF) && !isTimeout(err) {
		t.Fatalf("peer read error = %v, want deadline", err)
	}

	// Healing restores delivery; the blackholed bytes stay lost.
	gate.SetDropWrites(false)
	if _, err := wc.Write([]byte("three\n")); err != nil {
		t.Fatal(err)
	}
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := s.Read(buf); err != nil || string(buf[:n]) != "three\n" {
		t.Fatalf("post-heal read = %q, %v", buf[:n], err)
	}
}

func TestGateDropReadsDiscardsUntilDeadline(t *testing.T) {
	c, s := pipePair(t)
	gate := &Gate{}
	gate.SetDropReads(true)
	wc := WrapConn(c, Plan{Gate: gate}, 0)

	// The peer sends, but the blackholed reader discards and keeps
	// waiting: its own deadline is what ends the wait.
	if _, err := s.Write([]byte("lost\n")); err != nil {
		t.Fatal(err)
	}
	wc.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	buf := make([]byte, 16)
	if n, err := wc.Read(buf); err == nil {
		t.Fatalf("read %q through a blackholed direction", buf[:n])
	} else if !isTimeout(err) {
		t.Fatalf("read error = %v, want deadline", err)
	}

	// Heal: the NEXT frame is delivered (the earlier one is gone).
	gate.SetDropReads(false)
	if _, err := s.Write([]byte("found\n")); err != nil {
		t.Fatal(err)
	}
	wc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := wc.Read(buf); err != nil || string(buf[:n]) != "found\n" {
		t.Fatalf("post-heal read = %q, %v", buf[:n], err)
	}
}

func TestGatePartitionAndHeal(t *testing.T) {
	gate := &Gate{}
	gate.Partition()
	if r, w := gate.Dropped(); !r || !w {
		t.Fatalf("partition: dropped = %v %v, want true true", r, w)
	}
	gate.Heal()
	if r, w := gate.Dropped(); r || w {
		t.Fatalf("heal: dropped = %v %v, want false false", r, w)
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
