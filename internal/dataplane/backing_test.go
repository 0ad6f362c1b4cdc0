package dataplane

import (
	"runtime"
	"sync"
	"testing"
)

// backedArray reports the register's base array, nil while it is unbacked.
func backedArray(r *Register) []uint32 {
	if !r.backed.Load() {
		return nil
	}
	return r.buckets
}

// TestUnbackedRegister: a register no one has written reads as zeros and
// stays unbacked through every read entry, a clear, a reset and a drain of
// empty lanes (TestRegisterGeometry checks the geometry it reports).
func TestUnbackedRegister(t *testing.T) {
	for _, width := range []int{8, 32} {
		r := NewRegister(4096, width)
		if r.Read(7) != 0 || r.Occupancy() != 0 {
			t.Fatalf("width %d: Read %d, Occupancy %d; want 0, 0", width, r.Read(7), r.Occupancy())
		}
		for i, v := range r.ReadRange(100, 50) {
			if v != 0 {
				t.Fatalf("ReadRange[%d] = %d, want 0", i, v)
			}
		}
		dst := []uint32{1, 2, 3}
		r.CopyRange(dst, 10)
		if dst[0]|dst[1]|dst[2] != 0 {
			t.Fatalf("CopyRange left %v, want zeros", dst)
		}
		r.ClearRange(0, 1024)
		r.Reset()
		r.ApplyBatch(OpCondAdd, nil, nil, nil, nil, nil)
		r.ApplyAddBatch([]uint32{1, 2}, 0) // adding 0 writes nothing
		r.EnableSharding(2)
		if got := r.DrainRange(OpCondAdd, 0, r.Size()); got != 0 {
			t.Fatalf("draining empty lanes folded %d buckets", got)
		}
		if backedArray(r) != nil {
			t.Fatalf("width %d: a read, clear, reset or empty drain backed the register", width)
		}
		// Lane state reads through without backing the base array.
		r.ShardApply(1, OpMax, 5, 9, 0)
		if got := r.ReadMerged(OpMax, 5); got != 9 {
			t.Fatalf("ReadMerged = %d, want the lane's 9", got)
		}
		if got := r.ReadRangeMerged(OpMax, 4, 2); got[0] != 0 || got[1] != 9 {
			t.Fatalf("ReadRangeMerged = %v, want [0 9]", got)
		}
		if backedArray(r) != nil {
			t.Fatalf("width %d: a merged read backed the register", width)
		}
	}
}

// TestFirstWriteBacksOnce: every write entry backs an unbacked register
// with exactly one Size()×4-byte allocation, and a second write allocates
// nothing and keeps the same array.
func TestFirstWriteBacksOnce(t *testing.T) {
	// One P, as in testing.AllocsPerRun: restarting the world after
	// ReadMemStats then wakes no idle P, whose new M would allocate.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	idx := []uint32{3, 3, 900}
	ones := []uint32{1, 1, 1}
	out := make([]uint32, 3)
	old := make([]uint32, 3)
	for _, tc := range []struct {
		name   string
		single bool
		write  func(r *Register)
	}{
		{"ApplySeq", true, func(r *Register) { r.ApplySeq(OpCondAdd, 3, 1, ^uint32(0)) }},
		{"Execute", true, func(r *Register) { r.Execute(OpMax, 3, 4, 0) }},
		{"Apply", false, func(r *Register) { r.Apply(OpAndOr, 3, 1, 1) }},
		{"Apply/single", true, func(r *Register) { r.Apply(OpXor, 3, 1, 0) }},
		{"ApplyBatch", false, func(r *Register) { r.ApplyBatch(OpCondAdd, idx, ones, ones, out, old) }},
		{"ApplyBatch/single", true, func(r *Register) { r.ApplyBatch(OpMax, idx, ones, ones, out, old) }},
		{"ApplyAddBatch", false, func(r *Register) { r.ApplyAddBatch(idx, 1) }},
		{"ApplyAddCounts/single", true, func(r *Register) { r.ApplyAddCounts(idx, ones, 1) }},
	} {
		r := NewRegister(4096, 32)
		r.SetSingleWriter(tc.single)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc.write(r)
		runtime.ReadMemStats(&after)
		if n, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n != 1 || b != 4096*4 {
			t.Fatalf("%s: first write made %d allocations of %d bytes, want 1 of %d", tc.name, n, b, 4096*4)
		}
		first := backedArray(r)
		if len(first) != r.Size() || r.Occupancy() == 0 {
			t.Fatalf("%s: first write left %d buckets backed, occupancy %d", tc.name, len(first), r.Occupancy())
		}
		if n := testing.AllocsPerRun(5, func() { tc.write(r) }); n != 0 {
			t.Fatalf("%s: a write to a backed register allocates %.1f times", tc.name, n)
		}
		if &backedArray(r)[0] != &first[0] {
			t.Fatalf("%s: a later write replaced the base array", tc.name)
		}
	}

	// A drain backs the register through Apply only when a lane holds state.
	r := NewRegister(4096, 32)
	r.EnableSharding(2)
	r.ShardApply(0, OpCondAdd, 77, 5, ^uint32(0))
	if got := r.DrainRange(OpCondAdd, 0, r.Size()); got != 1 || backedArray(r) == nil || r.Read(77) != 5 {
		t.Fatalf("drain folded %d, backed %v, bucket %d; want 1, true, 5", got, backedArray(r) != nil, r.Read(77))
	}
}

// TestConcurrentFirstWrites: goroutines race to make the first Apply and
// ApplyBatch on one shared-policy register while Occupancy and ReadRange
// run beside them. Exactly one array must win — an update landing in a
// second, discarded array would be lost from the sums — and under -race
// the publication of the array must report no race.
func TestConcurrentFirstWrites(t *testing.T) {
	const (
		writers = 8
		perG    = 2_000
		buckets = 256
	)
	for round := 0; round < 20; round++ {
		r := NewRegister(buckets, 32)
		start := make(chan struct{})
		done := make(chan struct{})
		var wg, readers sync.WaitGroup
		readers.Add(1)
		go func() {
			defer readers.Done()
			<-start
			for {
				select {
				case <-done:
					return
				default:
				}
				if occ := r.Occupancy(); occ > buckets {
					t.Errorf("occupancy %d beyond %d buckets", occ, buckets)
				}
				r.ReadRange(0, buckets)
			}
		}()
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				idx := make([]uint32, perG)
				ones := make([]uint32, perG)
				ceil := make([]uint32, perG)
				res := make([]uint32, perG)
				old := make([]uint32, perG)
				for i := range idx {
					idx[i] = uint32(i*7 + g)
					ones[i], ceil[i] = 1, ^uint32(0)
				}
				<-start
				if g%2 == 0 {
					for _, i := range idx {
						r.Apply(OpCondAdd, i, 1, ^uint32(0))
					}
					return
				}
				r.ApplyBatch(OpCondAdd, idx, ones, ceil, res, old)
			}(g)
		}
		close(start)
		wg.Wait()
		close(done)
		readers.Wait()
		var mass uint64
		for _, v := range r.ReadRange(0, buckets) {
			mass += uint64(v)
		}
		if want := uint64(writers * perG); mass != want {
			t.Fatalf("round %d: total mass %d, want %d: a first write landed in a discarded array", round, mass, want)
		}
	}
}
