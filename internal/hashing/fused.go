package hashing

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"flymon/internal/packet"
)

// MaxFused is the most polynomials one Fused kernel computes: every unit
// polynomial over one mask.
const MaxFused = 8

// Fused computes up to MaxFused CRC polynomials over one pre-masked
// canonical key in a single pass — the batch digest kernel of the frame
// engine (core.Snapshot.ProcessFrames), where every polynomial a mask feeds
// is needed for every frame.
//
// A CRC over a fixed-length key is affine over GF(2): crc(k) = C ⊕ ⨁ₚ
// Tₚ[k[p]], where C is the checksum of the all-zero key and Tₚ[v] the
// linear contribution of byte value v at position p. Under a mask only some
// key bytes can be nonzero (packet.MaskKey), so the sum runs over those
// positions alone, and one row load per position serves every polynomial: a
// row packs two 32-bit contributions per uint64, ⌈K/2⌉ words for K
// polynomials. The row loads of one key are independent, where
// Hasher.SumKey walks all 20 bytes in dependent slicing rounds once per
// polynomial. Results are bit-identical to Hasher.SumKey, fmix32 included.
type Fused struct {
	pos   []uint8   // live key byte positions, ascending
	polys int       // K
	words int       // uint64s per row: ⌈K/2⌉
	init  [4]uint64 // C of every polynomial, packed like a row
	rows  []uint64  // [len(pos)][256][words]
}

// fusedKey packs what identifies a kernel into one word: the live byte
// positions (bit p set: byte p can be nonzero) in bits 0–19, the number of
// polynomials in bits 20–23, and each polynomial's index, in output order,
// in three bits from bit 24 on.
func fusedKey(live uint32, hs []Hasher) uint64 {
	k := uint64(live) | uint64(len(hs))<<20
	for q, h := range hs {
		k |= uint64(h.poly) << (24 + 3*uint(q))
	}
	return k
}

// fusedCacheBytes bounds the process-wide kernel cache. A kernel is at most
// 20 × 256 × 32 B = 160 KB; when the cache outgrows the bound it starts
// over (kernels already handed out stay valid — the cache only shares them).
const fusedCacheBytes = 16 << 20

// fusedCache is read without a lock — a publish looks a kernel up far more
// often than a build inserts one — and replaced whole, under mu, on insert.
var fusedCache struct {
	mu    sync.Mutex
	m     atomic.Pointer[map[uint64]*Fused]
	bytes int
}

// NewFused returns the kernel computing hs, in order, over keys extracted
// under mask. Kernels are built once per (live positions, polynomials) and
// shared process-wide: every snapshot, controller and in-process daemon
// digesting the same key with the same polynomials holds the same tables.
// Building happens here, at compile time; the packet path only reads them.
func NewFused(mask [packet.NumFields]uint32, hs []Hasher) *Fused {
	if len(hs) == 0 || len(hs) > MaxFused {
		panic(fmt.Sprintf("hashing: fused kernel over %d polynomials, want 1..%d", len(hs), MaxFused))
	}
	var live uint32
	for p, b := range packet.MaskKey(mask) {
		if b != 0 {
			live |= 1 << uint(p)
		}
	}
	key := fusedKey(live, hs)
	if m := fusedCache.m.Load(); m != nil {
		if f := (*m)[key]; f != nil {
			return f
		}
	}
	fusedCache.mu.Lock()
	defer fusedCache.mu.Unlock()
	old := fusedCache.m.Load()
	if old != nil {
		if f := (*old)[key]; f != nil {
			return f
		}
	}
	f := buildFused(live, hs)
	next := map[uint64]*Fused{key: f}
	if old != nil && fusedCache.bytes <= fusedCacheBytes {
		for k, v := range *old {
			next[k] = v
		}
	} else {
		fusedCache.bytes = 0
	}
	fusedCache.bytes += 8 * len(f.rows)
	fusedCache.m.Store(&next)
	return f
}

// buildFused builds the tables by linearity: each live position has eight
// basis rows (the contribution of each bit of its byte), and the row of
// byte value v is the row of v without its lowest set bit XOR that bit's
// basis row.
func buildFused(live uint32, hs []Hasher) *Fused {
	f := &Fused{polys: len(hs), words: (len(hs) + 1) / 2}
	var zero packet.CanonicalKey
	var c [MaxFused]uint32
	for q, h := range hs {
		c[q] = h.table.ChecksumKey(&zero)
		f.init[q/2] |= uint64(c[q]) << (32 * (q % 2))
	}
	for p := 0; p < packet.MaxKeyBytes; p++ {
		if live&(1<<uint(p)) != 0 {
			f.pos = append(f.pos, uint8(p))
		}
	}
	w := f.words
	f.rows = make([]uint64, len(f.pos)*256*w)
	for j, p := range f.pos {
		var basis [8][4]uint64
		for b := range basis {
			var k packet.CanonicalKey
			k[p] = 1 << uint(b)
			for q, h := range hs {
				basis[b][q/2] |= uint64(h.table.ChecksumKey(&k)^c[q]) << (32 * (q % 2))
			}
		}
		tab := f.rows[j*256*w : (j+1)*256*w]
		for v := 1; v < 256; v++ {
			low, rest := bits.TrailingZeros8(uint8(v)), v&(v-1)
			for x := 0; x < w; x++ {
				tab[v*w+x] = tab[rest*w+x] ^ basis[low][x]
			}
		}
	}
	return f
}

// SumKeys digests every key under every polynomial of f: dst[q][i] becomes
// hs[q].SumKey(&keys[i]) for the hs f was built from. dst holds one slice
// per polynomial, each at least len(keys) long; keys must be extracted
// under a mask whose live bytes are f's (bytes outside them are ignored).
//
// There is one body per row width. Each keeps its accumulators in
// registers and writes every finalised digest straight into its output
// row, the high half of a word before the low one: for an odd K the last
// word's high half is padding, and its row aliases output K-1, which the
// low half then overwrites.
func (f *Fused) SumKeys(keys []packet.CanonicalKey, dst [][]uint32) {
	n := len(keys)
	var d [MaxFused][]uint32
	for q := range d[:2*f.words] {
		d[q] = dst[min(q, f.polys-1)]
	}
	pos, rows, init := f.pos, f.rows, f.init
	switch f.words {
	case 1:
		d0, d1 := d[0][:n], d[1][:n]
		for i := range keys {
			k := &keys[i]
			a0 := init[0]
			for j, p := range pos {
				a0 ^= rows[j<<8|int(k[p])]
			}
			d1[i], d0[i] = hi(a0), lo(a0)
		}
	case 2:
		d0, d1, d2, d3 := d[0][:n], d[1][:n], d[2][:n], d[3][:n]
		for i := range keys {
			k := &keys[i]
			a0, a1 := init[0], init[1]
			for j, p := range pos {
				r := rows[(j<<8|int(k[p]))*2:][:2:2]
				a0 ^= r[0]
				a1 ^= r[1]
			}
			d1[i], d0[i] = hi(a0), lo(a0)
			d3[i], d2[i] = hi(a1), lo(a1)
		}
	case 3:
		d0, d1, d2, d3, d4, d5 := d[0][:n], d[1][:n], d[2][:n], d[3][:n], d[4][:n], d[5][:n]
		for i := range keys {
			k := &keys[i]
			a0, a1, a2 := init[0], init[1], init[2]
			for j, p := range pos {
				r := rows[(j<<8|int(k[p]))*3:][:3:3]
				a0 ^= r[0]
				a1 ^= r[1]
				a2 ^= r[2]
			}
			d1[i], d0[i] = hi(a0), lo(a0)
			d3[i], d2[i] = hi(a1), lo(a1)
			d5[i], d4[i] = hi(a2), lo(a2)
		}
	default:
		d0, d1, d2, d3, d4, d5, d6, d7 := d[0][:n], d[1][:n], d[2][:n], d[3][:n], d[4][:n], d[5][:n], d[6][:n], d[7][:n]
		for i := range keys {
			k := &keys[i]
			a0, a1, a2, a3 := init[0], init[1], init[2], init[3]
			for j, p := range pos {
				r := rows[(j<<8|int(k[p]))*4:][:4:4]
				a0 ^= r[0]
				a1 ^= r[1]
				a2 ^= r[2]
				a3 ^= r[3]
			}
			d1[i], d0[i] = hi(a0), lo(a0)
			d3[i], d2[i] = hi(a1), lo(a1)
			d5[i], d4[i] = hi(a2), lo(a2)
			d7[i], d6[i] = hi(a3), lo(a3)
		}
	}
}

// lo and hi finalise the two CRCs an accumulator word packs.
func lo(a uint64) uint32 { return fmix32(uint32(a)) }
func hi(a uint64) uint32 { return fmix32(uint32(a >> 32)) }
