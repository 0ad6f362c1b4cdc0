// Package controlplane implements FlyMon's control plane (§3.4): task
// management (define/modify/remove measurement tasks compiled into runtime
// rules), resource management (compressed-key registry, buddy memory
// allocation over CMU registers, greedy CMU-Group placement), the
// accurate/efficient memory-allocation modes, and the deployment-delay
// model used for Table 3.
package controlplane

import (
	"fmt"
	"math/bits"
)

// BuddyAllocator manages one CMU register's buckets as power-of-two
// partitions — exactly the ranges address translation can map (§3.3).
// MinPartition bounds fragmentation: with 32 partitions per register the
// paper's 96-task-per-group figure follows (32 × 3 CMUs).
//
// State is two bitsets per order o, over the register's blocks of
// minBlock<<o buckets (bit i is the block at base i·(minBlock<<o)): free is
// the free list, used the granted partitions. Alloc, Free and Admit are bit
// operations and allocate nothing.
type BuddyAllocator struct {
	size     int
	minBlock int
	free     [][]uint64
	used     [][]uint64
}

// NewBuddyAllocator manages `size` buckets (a power of two) with the given
// minimum partition size.
func NewBuddyAllocator(size, minBlock int) *BuddyAllocator {
	if size <= 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("controlplane: allocator size %d not a power of two", size))
	}
	if minBlock <= 0 || minBlock&(minBlock-1) != 0 || minBlock > size {
		panic(fmt.Sprintf("controlplane: min block %d invalid for size %d", minBlock, size))
	}
	b := &BuddyAllocator{size: size, minBlock: minBlock}
	for s := minBlock; s <= size; s <<= 1 {
		words := (size/s + 63) / 64
		b.free = append(b.free, make([]uint64, words))
		b.used = append(b.used, make([]uint64, words))
	}
	b.free[len(b.free)-1][0] = 1 // the whole register
	return b
}

func (b *BuddyAllocator) orderFor(buckets int) (int, error) {
	if buckets <= 0 {
		return 0, fmt.Errorf("controlplane: cannot allocate %d buckets", buckets)
	}
	size := b.minBlock
	for o := range b.free {
		if size >= buckets {
			return o, nil
		}
		size <<= 1
	}
	return 0, fmt.Errorf("controlplane: %d buckets exceed register size %d", buckets, b.size)
}

// find returns the order a partition of `buckets` is granted at and the
// smallest order holding a free block that large, or the error Alloc
// reports.
func (b *BuddyAllocator) find(buckets int) (order, from int, err error) {
	if order, err = b.orderFor(buckets); err != nil {
		return 0, 0, err
	}
	for from = order; from < len(b.free); from++ {
		if lowestBit(b.free[from]) >= 0 {
			return order, from, nil
		}
	}
	return 0, 0, fmt.Errorf("controlplane: no free partition of %d buckets", b.minBlock<<order)
}

// Admit reports, without changing anything, whether Alloc(buckets) would
// succeed; the error is the one Alloc would return.
func (b *BuddyAllocator) Admit(buckets int) error {
	_, _, err := b.find(buckets)
	return err
}

// Alloc reserves a partition of at least `buckets` buckets (rounded up to a
// power of two ≥ MinPartition) and returns its base: the smallest base among
// the free blocks of the smallest order that fits.
func (b *BuddyAllocator) Alloc(buckets int) (base, got int, err error) {
	order, from, err := b.find(buckets)
	if err != nil {
		return 0, 0, err
	}
	i := lowestBit(b.free[from])
	clearBit(b.free[from], i)
	// Split down to the requested order: each step frees the upper half.
	for o := from; o > order; o-- {
		i <<= 1
		setBit(b.free[o-1], i+1)
	}
	setBit(b.used[order], i)
	return i * (b.minBlock << order), b.minBlock << order, nil
}

// Free releases the partition at base, coalescing buddies.
func (b *BuddyAllocator) Free(base int) error {
	order := -1
	if base >= 0 && base < b.size {
		for o := range b.used {
			if base&(b.minBlock<<o-1) != 0 {
				break // not a block boundary at this order or above
			}
			if bit(b.used[o], base/(b.minBlock<<o)) {
				order = o
				break
			}
		}
	}
	if order < 0 {
		return fmt.Errorf("controlplane: free of unallocated base %d", base)
	}
	i := base / (b.minBlock << order)
	clearBit(b.used[order], i)
	for ; order < len(b.free)-1 && bit(b.free[order], i^1); order++ {
		clearBit(b.free[order], i^1)
		i >>= 1
	}
	setBit(b.free[order], i)
	return nil
}

// FreeBuckets returns the total unallocated buckets.
func (b *BuddyAllocator) FreeBuckets() int {
	total := 0
	for o, set := range b.free {
		total += ones(set) * (b.minBlock << o)
	}
	return total
}

// LargestFree returns the largest allocatable partition size (0 when full).
func (b *BuddyAllocator) LargestFree() int {
	for o := len(b.free) - 1; o >= 0; o-- {
		if lowestBit(b.free[o]) >= 0 {
			return b.minBlock << o
		}
	}
	return 0
}

// Allocations returns the number of live partitions.
func (b *BuddyAllocator) Allocations() int {
	n := 0
	for _, set := range b.used {
		n += ones(set)
	}
	return n
}

// Size returns the managed bucket count.
func (b *BuddyAllocator) Size() int { return b.size }

// lowestBit returns the index of set's lowest set bit, or -1.
func lowestBit(set []uint64) int {
	for w, v := range set {
		if v != 0 {
			return w*64 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

func bit(set []uint64, i int) bool { return set[i/64]&(1<<uint(i%64)) != 0 }

func setBit(set []uint64, i int) { set[i/64] |= 1 << uint(i%64) }

func clearBit(set []uint64, i int) { set[i/64] &^= 1 << uint(i%64) }

func ones(set []uint64) int {
	n := 0
	for _, v := range set {
		n += bits.OnesCount64(v)
	}
	return n
}

// MemoryMode selects how requested memory maps to a power-of-two partition
// (§3.4): Accurate never under-allocates; Efficient picks the nearest
// partition size, possibly smaller than requested.
type MemoryMode uint8

const (
	// Accurate allocates the smallest power of two ≥ the request.
	Accurate MemoryMode = iota
	// Efficient allocates the power of two closest to the request.
	Efficient
)

// String implements fmt.Stringer.
func (m MemoryMode) String() string {
	if m == Efficient {
		return "efficient"
	}
	return "accurate"
}

// PartitionFor maps a bucket request to the partition size the mode grants.
func (m MemoryMode) PartitionFor(request, minBlock, max int) int {
	if request < minBlock {
		request = minBlock
	}
	up := minBlock
	for up < request {
		up <<= 1
	}
	if up > max {
		up = max
	}
	if m == Accurate {
		return up
	}
	down := up >> 1
	if down < minBlock {
		return up
	}
	// Nearest in log space: prefer the smaller side on ties.
	if float64(request)/float64(down) <= float64(up)/float64(request) {
		return down
	}
	return up
}
