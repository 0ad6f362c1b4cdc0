package mmtrace

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
	const frames, passes, workers, batch = 10_000, 3, 4, 64
	tr := openTestTrace(t, frames)
	rep, err := NewReplayer(ReplayConfig{
		Traces:  []*Trace{tr},
		Workers: workers,
		Batch:   batch,
		Passes:  passes,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]atomic.Int32, frames)
	rep.Start()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Spans are Batch-aligned and whole: every delivered range
			// starts on a span boundary and is Batch wide, except the
			// trace's tail.
			for {
				got, lo, hi := rep.NextFrames(w)
				if got == nil {
					return
				}
				if got != tr || lo%batch != 0 || hi <= lo || hi > frames || (hi-lo != batch && hi != frames) {
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
	if st := rep.Stats(); st.Producers != 0 {
		t.Fatalf("producers still live: %d", st.Producers)
	}
}

// TestReplayerMultiTrace replays two traces (two ring producers) and
// checks the combined delivery count.
func TestReplayerMultiTrace(t *testing.T) {
	trA := openTestTrace(t, 3000)
	trB := openTestTrace(t, 2000)
	rep, err := NewReplayer(ReplayConfig{
		Traces:  []*Trace{trA, trB},
		Workers: 2,
		Batch:   128,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
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
	if total.Load() != 5000 {
		t.Fatalf("delivered %d packets, want 5000", total.Load())
	}
}

// TestReplayerStop ends a loop-mode replay: after Stop the consumers must
// drain and NextFrames must return nil on every worker — the
// goroutine-leak gate for the producer side.
func TestReplayerStop(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := openTestTrace(t, 1000)
	rep, err := NewReplayer(ReplayConfig{
		Traces:  []*Trace{tr},
		Workers: 2,
		Batch:   64,
		Passes:  -1, // loop forever
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
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
		t.Fatal("consumers did not drain after Stop")
	}
	if rep.Packets() < 1000 {
		t.Fatalf("loop mode delivered only %d packets", rep.Packets())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after Stop: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplayerNextZeroAlloc is the steady-state allocation gate: once the
// replay is running, NextFrames must not allocate.
func TestReplayerNextZeroAlloc(t *testing.T) {
	tr := openTestTrace(t, 100_000)
	rep, err := NewReplayer(ReplayConfig{
		Traces:  []*Trace{tr},
		Workers: 1,
		Batch:   256,
		Passes:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	defer func() {
		rep.Stop()
		drainFrames(rep, 0)
	}()
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
		drainFrames(rep, 0)
	}()
	rep.Start()
}
