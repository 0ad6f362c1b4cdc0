package mmtrace

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flymon/internal/packet"
)

func openTestTrace(t *testing.T, n int) *Trace {
	t.Helper()
	path, _ := writeTraceFile(t, genPackets(n))
	tr, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// drainFrames pulls spans for worker w until the replay is complete.
func drainFrames(rep *Replayer, w int) {
	for {
		if tr, _, _ := rep.NextFrames(w); tr == nil {
			return
		}
	}
}

// TestReplayerDeliversEveryFrame drains a replayer with several concurrent
// consumers and checks that every frame of every pass arrives exactly once
// (tallied per frame index of the delivered range).
func TestReplayerDeliversEveryFrame(t *testing.T) {
	const frames, passes, workers = 20*defaultBatch + 100, 3, 4
	tr := openTestTrace(t, frames)
	rep, err := NewReplayer(ReplayConfig{
		Traces:  []*Trace{tr},
		Workers: workers,
		Passes:  passes,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]atomic.Int32, frames)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Spans are span-aligned and whole: every delivered range
			// starts on a span boundary and is defaultBatch wide, except
			// the trace's tail.
			for {
				got, lo, hi := rep.NextFrames(w)
				if got == nil {
					return
				}
				if got != tr || lo%defaultBatch != 0 || hi <= lo || hi > frames || (hi-lo != defaultBatch && hi != frames) {
					t.Errorf("range [%d,%d) of %p is not a span-aligned window of the trace", lo, hi, got)
					return
				}
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := rep.Packets(); got != frames*passes {
		t.Fatalf("delivered %d packets, want %d", got, frames*passes)
	}
	for i := range counts {
		if c := counts[i].Load(); c != passes {
			t.Fatalf("frame %d delivered %d times, want %d", i, c, passes)
		}
	}
}

// TestReplayerMultiTrace replays two traces and checks the combined
// delivery count.
func TestReplayerMultiTrace(t *testing.T) {
	trA := openTestTrace(t, 3*defaultBatch)
	trB := openTestTrace(t, 2*defaultBatch+7)
	rep, err := NewReplayer(ReplayConfig{
		Traces:  []*Trace{trA, trB},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = 5*defaultBatch + 7
	var total atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				tr, lo, hi := rep.NextFrames(w)
				if tr == nil {
					return
				}
				total.Add(uint64(hi - lo))
			}
		}(w)
	}
	wg.Wait()
	if total.Load() != want {
		t.Fatalf("delivered %d packets, want %d", total.Load(), want)
	}
}

// TestReplayerOrder: a replay runs pass by pass and, inside a pass, trace
// by trace in ReplayConfig.Traces order, each trace in span order — so a
// one-worker drain sees exactly that sequence.
func TestReplayerOrder(t *testing.T) {
	trA := FromPackets(make([]packet.Packet, 2*defaultBatch+5))
	trB := FromPackets(make([]packet.Packet, defaultBatch))
	empty := FromPackets(nil)
	rep, err := NewReplayer(ReplayConfig{Traces: []*Trace{trA, empty, trB}, Workers: 1, Passes: 2})
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		t      *Trace
		lo, hi int
	}
	var want []span
	for pass := 0; pass < 2; pass++ {
		want = append(want,
			span{trA, 0, defaultBatch}, span{trA, defaultBatch, 2 * defaultBatch}, span{trA, 2 * defaultBatch, 2*defaultBatch + 5},
			span{trB, 0, defaultBatch})
	}
	for i, w := range want {
		tr, lo, hi := rep.NextFrames(0)
		if got := (span{tr, lo, hi}); got != w {
			t.Fatalf("span %d = [%d,%d) of %p, want [%d,%d) of %p", i, lo, hi, tr, w.lo, w.hi, w.t)
		}
	}
	if tr, _, _ := rep.NextFrames(0); tr != nil {
		t.Fatal("replay hands out a span past its last pass")
	}
}

// TestReplayerStop ends a loop-mode replay: after Stop the consumers must
// finish and NextFrames must return nil on every worker.
func TestReplayerStop(t *testing.T) {
	tr := openTestTrace(t, 1000)
	rep, err := NewReplayer(ReplayConfig{
		Traces:  []*Trace{tr},
		Workers: 2,
		Passes:  -1, // loop forever
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			drainFrames(rep, w)
		}(w)
	}
	time.Sleep(20 * time.Millisecond) // let it loop a few passes
	rep.Stop()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("consumers did not finish after Stop")
	}
	if rep.Packets() < 1000 {
		t.Fatalf("loop mode delivered only %d packets", rep.Packets())
	}
}

// TestReplayerStopEndsAtOnce: after Stop, a worker's next NextFrames
// returns nil — nothing is queued behind the span it holds. The trace is
// 64 spans long, so a replay that buffered spans ahead of its workers
// would still have dozens to hand out.
func TestReplayerStopEndsAtOnce(t *testing.T) {
	tr := FromPackets(make([]packet.Packet, 64*defaultBatch))
	for _, passes := range []int{1, -1} {
		rep, err := NewReplayer(ReplayConfig{Traces: []*Trace{tr}, Workers: 1, Passes: passes})
		if err != nil {
			t.Fatal(err)
		}
		if got, _, _ := rep.NextFrames(0); got == nil {
			t.Fatalf("passes %d: replay ended before its first span", passes)
		}
		rep.Stop()
		if got, lo, hi := rep.NextFrames(0); got != nil {
			t.Fatalf("passes %d: NextFrames after Stop handed out [%d,%d)", passes, lo, hi)
		}
		if got := rep.Packets(); got != defaultBatch {
			t.Fatalf("passes %d: %d packets delivered, want the one span's %d", passes, got, defaultBatch)
		}
	}
}

// TestReplayerStartsNoGoroutine: constructing and starting a loop-mode
// replay leaves the goroutine count where it was — the replay is a cursor
// its callers advance, with nothing running between their calls.
func TestReplayerStartsNoGoroutine(t *testing.T) {
	tr := FromPackets(make([]packet.Packet, 4*defaultBatch))
	before := runtime.NumGoroutine()
	rep, err := NewReplayer(ReplayConfig{Traces: []*Trace{tr}, Workers: 4, Passes: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("NewReplayer + Start: %d goroutines, %d before", got, before)
	}
	rep.Stop()
}

// TestReplayerEmptyLoopEnds: a looping replay whose traces are all empty
// has nothing to hand out and ends on the first call, on every worker,
// without dividing by its zero spans per pass.
func TestReplayerEmptyLoopEnds(t *testing.T) {
	empty := FromPackets(nil)
	rep, err := NewReplayer(ReplayConfig{Traces: []*Trace{empty, empty}, Workers: 2, Passes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		if got, lo, hi := rep.NextFrames(w); got != nil {
			t.Fatalf("worker %d: empty loop handed out [%d,%d)", w, lo, hi)
		}
	}
	if got := rep.Packets(); got != 0 {
		t.Fatalf("empty loop delivered %d packets", got)
	}
}

// TestReplayerNextZeroAlloc is the steady-state allocation gate: once the
// replay is running, NextFrames must not allocate.
func TestReplayerNextZeroAlloc(t *testing.T) {
	tr := openTestTrace(t, 100_000)
	rep, err := NewReplayer(ReplayConfig{
		Traces:  []*Trace{tr},
		Workers: 1,
		Passes:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	for i := 0; i < 16; i++ { // warm up
		if tr, _, _ := rep.NextFrames(0); tr == nil {
			t.Fatal("replay ended during warmup")
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if tr, _, _ := rep.NextFrames(0); tr == nil {
			t.Fatal("replay ended mid-measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("NextFrames allocates %.1f objects per call in steady state, want 0", allocs)
	}
}

func TestReplayerConfigValidation(t *testing.T) {
	tr := openTestTrace(t, 10)
	if _, err := NewReplayer(ReplayConfig{Workers: 1}); err == nil {
		t.Fatal("no traces accepted")
	}
	if _, err := NewReplayer(ReplayConfig{Traces: []*Trace{tr}}); err == nil {
		t.Fatal("zero workers accepted")
	}
	rep, err := NewReplayer(ReplayConfig{Traces: []*Trace{tr}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start must panic")
		}
	}()
	rep.Start()
}
