package dataplane

import (
	"math/rand"
	"testing"
)

// policies are the two base-bucket write policies every batch entry must be
// bit-identical under, against the shared-bucket Apply oracle: shared
// buckets (CAS and fetch-and-add) and a single writer (plain stores).
var policies = []struct {
	name   string
	single bool
}{{"shared", false}, {"single-writer", true}}

// TestApplyBatchMatchesApply is the batched-update property test: for every
// op and write policy, a random update stream applied through ApplyBatch
// must leave the register — buckets, access and clamp counters — and the
// per-update (result, old) witnesses bit-identical to applying the same
// stream one shared-bucket Apply call at a time. An 8-bit register keeps
// saturation (and its clamp accounting) in play.
func TestApplyBatchMatchesApply(t *testing.T) {
	const buckets, n = 64, 4096
	rng := rand.New(rand.NewSource(21))
	for _, op := range []StatefulOp{OpNone, OpCondAdd, OpMax, OpAndOr, OpXor} {
		t.Run(op.String(), func(t *testing.T) {
			idx := make([]uint32, n)
			p1 := make([]uint32, n)
			p2 := make([]uint32, n)
			for i := 0; i < n; i++ {
				idx[i] = uint32(rng.Intn(buckets))
				p1[i] = uint32(rng.Intn(300))
				switch {
				case op == OpCondAdd && rng.Intn(4) == 0:
					p2[i] = uint32(rng.Intn(64)) // low ceiling: exercises the cur >= p2 arm
				case op == OpAndOr:
					p2[i] = uint32(rng.Intn(2)) // both AND and OR branches
				default:
					p2[i] = ^uint32(0)
				}
			}

			ref := NewRegister(buckets, 8)
			wantRes := make([]uint32, n)
			wantOld := make([]uint32, n)
			for i := 0; i < n; i++ {
				wantRes[i], wantOld[i] = ref.Apply(op, idx[i], p1[i], p2[i])
			}

			for _, pol := range policies {
				got := NewRegister(buckets, 8)
				got.SetSingleWriter(pol.single)
				gotRes := make([]uint32, n)
				gotOld := make([]uint32, n)
				got.ApplyBatch(op, idx, p1, p2, gotRes, gotOld)

				for i := 0; i < n; i++ {
					if gotRes[i] != wantRes[i] || gotOld[i] != wantOld[i] {
						t.Fatalf("%s update %d: batch witnessed (%d,%d), sequential (%d,%d)",
							pol.name, i, gotRes[i], gotOld[i], wantRes[i], wantOld[i])
					}
				}
				for b := uint32(0); b < buckets; b++ {
					if got.Read(b) != ref.Read(b) {
						t.Fatalf("%s bucket %d: batch %d, sequential %d", pol.name, b, got.Read(b), ref.Read(b))
					}
				}
				if got.Accesses() != ref.Accesses() {
					t.Fatalf("%s accesses: batch %d, sequential %d", pol.name, got.Accesses(), ref.Accesses())
				}
				if got.Clamps() != ref.Clamps() {
					t.Fatalf("%s clamps: batch %d, sequential %d", pol.name, got.Clamps(), ref.Clamps())
				}
			}
		})
	}
}

// TestShardApplyBatchMatchesShardApply: same property through a private
// lane, including the lane drain back into shared state.
func TestShardApplyBatchMatchesShardApply(t *testing.T) {
	const buckets, n, shard = 64, 4096, 1
	rng := rand.New(rand.NewSource(22))
	for _, op := range []StatefulOp{OpCondAdd, OpMax, OpAndOr, OpXor} {
		t.Run(op.String(), func(t *testing.T) {
			idx := make([]uint32, n)
			p1 := make([]uint32, n)
			p2 := make([]uint32, n)
			for i := 0; i < n; i++ {
				idx[i] = uint32(rng.Intn(buckets))
				p1[i] = uint32(rng.Intn(300))
				if op == OpAndOr {
					p2[i] = uint32(rng.Intn(2))
				} else {
					p2[i] = ^uint32(0)
				}
			}

			ref := NewRegister(buckets, 8)
			ref.EnableSharding(2)
			wantRes := make([]uint32, n)
			wantOld := make([]uint32, n)
			for i := 0; i < n; i++ {
				wantRes[i], wantOld[i] = ref.ShardApply(shard, op, idx[i], p1[i], p2[i])
			}

			got := NewRegister(buckets, 8)
			got.EnableSharding(2)
			gotRes := make([]uint32, n)
			gotOld := make([]uint32, n)
			got.ShardApplyBatch(shard, op, idx, p1, p2, gotRes, gotOld)

			for i := 0; i < n; i++ {
				if gotRes[i] != wantRes[i] || gotOld[i] != wantOld[i] {
					t.Fatalf("update %d: batch witnessed (%d,%d), sequential (%d,%d)",
						i, gotRes[i], gotOld[i], wantRes[i], wantOld[i])
				}
			}
			ref.DrainRange(op, 0, buckets)
			got.DrainRange(op, 0, buckets)
			for b := uint32(0); b < buckets; b++ {
				if got.Read(b) != ref.Read(b) {
					t.Fatalf("bucket %d after drain: batch %d, sequential %d", b, got.Read(b), ref.Read(b))
				}
			}
			if got.Accesses() != ref.Accesses() {
				t.Fatalf("accesses: batch %d, sequential %d", got.Accesses(), ref.Accesses())
			}
			if got.Clamps() != ref.Clamps() {
				t.Fatalf("clamps: batch %d, sequential %d", got.Clamps(), ref.Clamps())
			}
		})
	}
}

// TestApplyAddBatchMatchesApply: the saturating-add specialization, under
// either write policy, must be bit-identical to the shared-bucket
// Apply(OpCondAdd, i, p1, ^0) per element on a full-width register —
// including at the 32-bit wrap, where the repair store must reproduce
// Apply's clamp-to-saturation exactly once and leave later adds against the
// saturated bucket as silent no-ops.
func TestApplyAddBatchMatchesApply(t *testing.T) {
	const buckets = 64
	rng := rand.New(rand.NewSource(23))

	t.Run("random", func(t *testing.T) {
		const n = 4096
		idx := make([]uint32, n)
		for i := range idx {
			idx[i] = uint32(rng.Intn(buckets))
		}
		for _, p1 := range []uint32{0, 1, 1500} {
			ref := NewRegister(buckets, 32)
			for _, i := range idx {
				ref.Apply(OpCondAdd, i, p1, ^uint32(0))
			}
			for _, pol := range policies {
				got := NewRegister(buckets, 32)
				got.SetSingleWriter(pol.single)
				got.ApplyAddBatch(idx, p1)
				for b := uint32(0); b < buckets; b++ {
					if got.Read(b) != ref.Read(b) {
						t.Fatalf("%s p1=%d bucket %d: batch %d, sequential %d", pol.name, p1, b, got.Read(b), ref.Read(b))
					}
				}
				if got.Clamps() != ref.Clamps() {
					t.Fatalf("%s p1=%d clamps: batch %d, sequential %d", pol.name, p1, got.Clamps(), ref.Clamps())
				}
			}
		}
	})

	t.Run("wrap", func(t *testing.T) {
		// Large increments force a wrap: the first saturating update clamps
		// and counts once; every later update is a no-op without a clamp.
		idx := make([]uint32, 16) // all bucket 0
		const p1 = 0x4000_0000
		ref := NewRegister(buckets, 32)
		for range idx {
			ref.Apply(OpCondAdd, 0, p1, ^uint32(0))
		}
		for _, pol := range policies {
			got := NewRegister(buckets, 32)
			got.SetSingleWriter(pol.single)
			got.ApplyAddBatch(idx, p1)
			if got.Read(0) != ref.Read(0) || got.Read(0) != ^uint32(0) {
				t.Fatalf("%s saturated bucket: batch %d, sequential %d, want %d", pol.name, got.Read(0), ref.Read(0), ^uint32(0))
			}
			if got.Clamps() != ref.Clamps() || got.Clamps() != 1 {
				t.Fatalf("%s clamps: batch %d, sequential %d, want exactly 1", pol.name, got.Clamps(), ref.Clamps())
			}
		}
	})
}

// TestApplyAddCountsMatchesApply: one weighted add per element, under
// either write policy, must leave every bucket and the clamp counter where
// cnt[k] per-update shared-bucket Apply calls would — from buckets at 0, at
// ^0, just below it, and at exact multiples of p1 below it (a run that lands
// on ^0 saturates silently), and for runs whose total count·p1 passes 2^32
// from any start.
func TestApplyAddCountsMatchesApply(t *testing.T) {
	const buckets, n = 64, 2048
	rng := rand.New(rand.NewSource(25))
	for _, p1 := range []uint32{0, 1, 2, 1500, 0x0100_0003, 0x8000_0000, ^uint32(0)} {
		start := make([]uint32, buckets)
		for b := range start {
			switch b % 8 {
			case 0:
				start[b] = 0
			case 1:
				start[b] = ^uint32(0)
			case 2:
				start[b] = ^uint32(0) - uint32(rng.Intn(4))
			case 3: // an exact number of steps below saturation
				start[b] = ^uint32(0) - p1*uint32(rng.Intn(40))
			case 4:
				start[b] = ^uint32(0) - p1*uint32(rng.Intn(40)) - 1
			default:
				start[b] = ^uint32(0) - uint32(rng.Intn(1<<20))
			}
		}
		idx, cnt := make([]uint32, n), make([]uint32, n)
		for k := range idx {
			idx[k], cnt[k] = uint32(rng.Intn(buckets)), uint32(1+rng.Intn(300))
		}
		ref := NewRegister(buckets, 32)
		for b, v := range start {
			ref.Apply(OpMax, uint32(b), v, 0)
		}
		for k, i := range idx {
			for c := uint32(0); c < cnt[k]; c++ {
				ref.Apply(OpCondAdd, i, p1, ^uint32(0))
			}
		}
		for _, pol := range policies {
			got := NewRegister(buckets, 32)
			got.SetSingleWriter(pol.single)
			for b, v := range start {
				got.Apply(OpMax, uint32(b), v, 0)
			}
			got.ApplyAddCounts(idx, cnt, p1)
			for b := uint32(0); b < buckets; b++ {
				if got.Read(b) != ref.Read(b) {
					t.Fatalf("%s p1=%#x bucket %d (from %#x): weighted %#x, per-update %#x",
						pol.name, p1, b, start[b], got.Read(b), ref.Read(b))
				}
			}
			if got.Clamps() != ref.Clamps() {
				t.Fatalf("%s p1=%#x clamps: weighted %d, per-update %d", pol.name, p1, got.Clamps(), ref.Clamps())
			}
		}
	}
}

// TestShardApplyAddBatchMatchesShardApply: the lane add with hoisted
// constants must match per-element ShardApply on a narrow register, where
// saturation, clamp counting, and the access counter are all live.
func TestShardApplyAddBatchMatchesShardApply(t *testing.T) {
	const buckets, n, shard = 64, 8192, 1
	rng := rand.New(rand.NewSource(24))
	idx := make([]uint32, n)
	for i := range idx {
		idx[i] = uint32(rng.Intn(buckets))
	}
	for _, p1 := range []uint32{1, 7} {
		ref := NewRegister(buckets, 8)
		ref.EnableSharding(2)
		for _, i := range idx {
			ref.ShardApply(shard, OpCondAdd, i, p1, ^uint32(0))
		}
		got := NewRegister(buckets, 8)
		got.EnableSharding(2)
		got.ShardApplyAddBatch(shard, idx, p1)

		ref.DrainRange(OpCondAdd, 0, buckets)
		got.DrainRange(OpCondAdd, 0, buckets)
		for b := uint32(0); b < buckets; b++ {
			if got.Read(b) != ref.Read(b) {
				t.Fatalf("p1=%d bucket %d after drain: batch %d, sequential %d", p1, b, got.Read(b), ref.Read(b))
			}
		}
		if got.Accesses() != ref.Accesses() {
			t.Fatalf("p1=%d accesses: batch %d, sequential %d", p1, got.Accesses(), ref.Accesses())
		}
		if got.Clamps() != ref.Clamps() {
			t.Fatalf("p1=%d clamps: batch %d, sequential %d", p1, got.Clamps(), ref.Clamps())
		}
	}
}

// BenchmarkApplyAddCounts times the single-writer combined add, per update,
// in ingest_steady's shape: nine groups of three 65,536-bucket registers,
// each a CMS row over a 16,384-bucket (64 KB) range, and 267 updates per
// call — the representatives of one 512-frame chunk. Each register's calls
// take four pre-drawn index columns in turn, which between them touch about
// every line of its range, as a trace's chunks do.
//
//	go test -run '^$' -bench ApplyAddCounts -cpu 1 ./internal/dataplane/
func BenchmarkApplyAddCounts(b *testing.B) {
	const regs, batches, n, span = 27, 4, 267, 16384
	rng := rand.New(rand.NewSource(25))
	rs := make([]*Register, regs)
	idx := make([][batches][]uint32, regs)
	cnt := make([][batches][]uint32, regs)
	for r := range rs {
		rs[r] = NewRegister(65536, 32)
		rs[r].SetSingleWriter(true)
		base := uint32(rng.Intn(4)) * span
		for c := range idx[r] {
			idx[r][c] = make([]uint32, n)
			cnt[r][c] = make([]uint32, n)
			for k := range idx[r][c] {
				idx[r][c][k] = base + uint32(rng.Intn(span))
				cnt[r][c][k] = 1 + uint32(rng.Intn(3))
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % batches
		for r, reg := range rs {
			reg.ApplyAddCounts(idx[r][c], cnt[r][c], 1)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*regs*n), "ns/update")
}
