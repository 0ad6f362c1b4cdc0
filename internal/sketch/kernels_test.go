package sketch

import (
	"fmt"
	"math/rand"
	"testing"
)

// kernelCases pairs each unrolled kernel with its scalar reference.
var kernelCases = []struct {
	name     string
	unrolled func(dst, src []uint32)
	scalar   func(dst, src []uint32)
}{
	{"add", mergeAddKernel, mergeAddScalar},
	{"max", mergeMaxKernel, mergeMaxScalar},
	{"or", mergeOrKernel, mergeOrScalar},
	{"xor", mergeXorKernel, mergeXorScalar},
}

// boundary values that stress the saturating-add carry path and the
// sign-ish top bit the other ops must not mishandle.
var kernelBoundaries = []uint32{
	0, 1, 2,
	1<<31 - 1, 1 << 31, 1<<31 + 1,
	^uint32(0) - 2, ^uint32(0) - 1, ^uint32(0),
}

// TestMergeKernelsMatchScalar is the property test: for random pairs at
// lengths that cover every unroll remainder (0..7 tail elements), the
// unrolled kernel must be bit-identical to the scalar reference.
func TestMergeKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lengths := []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 1024, 1027}
	for _, kc := range kernelCases {
		for _, n := range lengths {
			for trial := 0; trial < 20; trial++ {
				a := make([]uint32, n)
				b := make([]uint32, n)
				for i := range a {
					// Mix uniform randomness with boundary values so
					// saturation actually fires.
					if rng.Intn(4) == 0 {
						a[i] = kernelBoundaries[rng.Intn(len(kernelBoundaries))]
					} else {
						a[i] = rng.Uint32()
					}
					if rng.Intn(4) == 0 {
						b[i] = kernelBoundaries[rng.Intn(len(kernelBoundaries))]
					} else {
						b[i] = rng.Uint32()
					}
				}
				want := append([]uint32(nil), a...)
				got := append([]uint32(nil), a...)
				kc.scalar(want, b)
				kc.unrolled(got, b)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("kernel %s n=%d trial=%d: index %d: unrolled %d != scalar %d (a=%d b=%d)",
							kc.name, n, trial, i, got[i], want[i], a[i], b[i])
					}
				}
			}
		}
	}
}

// TestMergeKernelsSaturationBoundary pins the exact saturation semantics:
// every boundary pair, cross product, in a single vector.
func TestMergeKernelsSaturationBoundary(t *testing.T) {
	var a, b []uint32
	for _, x := range kernelBoundaries {
		for _, y := range kernelBoundaries {
			a = append(a, x)
			b = append(b, y)
		}
	}
	got := append([]uint32(nil), a...)
	mergeAddKernel(got, b)
	for i := range a {
		want := a[i] + b[i]
		if want < a[i] {
			want = ^uint32(0)
		}
		if got[i] != want {
			t.Fatalf("satAdd(%d, %d) = %d, want %d", a[i], b[i], got[i], want)
		}
	}
}

// TestMergeXorRegisters covers the new exported XOR merge (length check +
// odd-sketch semantics: xor-ing a state with itself cancels).
func TestMergeXorRegisters(t *testing.T) {
	a := []uint32{1, 2, 0xffffffff, 0}
	b := append([]uint32(nil), a...)
	if err := MergeXorRegisters(b, a); err != nil {
		t.Fatalf("MergeXorRegisters: %v", err)
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("self-xor index %d = %d, want 0", i, v)
		}
	}
	if err := MergeXorRegisters(a, []uint32{1}); err == nil {
		t.Fatal("length mismatch not rejected")
	}
}

// BenchmarkMergeRegisters measures the kernels against their scalar
// references over a register row sized like one CMU row of the fleet
// workloads (16K buckets): the kernel=scalar and kernel=unrolled
// sub-benchmarks pair up per op.
func BenchmarkMergeRegisters(b *testing.B) {
	const n = 16384
	src := make([]uint32, n)
	rng := rand.New(rand.NewSource(7))
	for i := range src {
		src[i] = rng.Uint32() >> 8 // keep adds below saturation most of the time
	}
	dst := make([]uint32, n)
	for _, kc := range kernelCases {
		for _, k := range []struct {
			name string
			fn   func(dst, src []uint32)
		}{{"scalar", kc.scalar}, {"unrolled", kc.unrolled}} {
			b.Run(fmt.Sprintf("op=%s/kernel=%s", kc.name, k.name), func(b *testing.B) {
				b.SetBytes(n * 4)
				for i := 0; i < b.N; i++ {
					k.fn(dst, src)
				}
			})
		}
	}
}
