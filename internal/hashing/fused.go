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
func (f *Fused) SumKeys(keys []packet.CanonicalKey, dst [][]uint32) {
	dst = dst[:f.polys]
	pos, rows := f.pos, f.rows
	switch f.words {
	case 1:
		for i := range keys {
			k := &keys[i]
			a0 := f.init[0]
			for j, p := range pos {
				a0 ^= rows[j<<8|int(k[p])]
			}
			emit(dst, i, [4]uint64{a0})
		}
	case 2:
		for i := range keys {
			k := &keys[i]
			a0, a1 := f.init[0], f.init[1]
			for j, p := range pos {
				r := rows[(j<<8|int(k[p]))*2:][:2:2]
				a0 ^= r[0]
				a1 ^= r[1]
			}
			emit(dst, i, [4]uint64{a0, a1})
		}
	case 3:
		for i := range keys {
			k := &keys[i]
			a0, a1, a2 := f.init[0], f.init[1], f.init[2]
			for j, p := range pos {
				r := rows[(j<<8|int(k[p]))*3:][:3:3]
				a0 ^= r[0]
				a1 ^= r[1]
				a2 ^= r[2]
			}
			emit(dst, i, [4]uint64{a0, a1, a2})
		}
	default:
		for i := range keys {
			k := &keys[i]
			a0, a1, a2, a3 := f.init[0], f.init[1], f.init[2], f.init[3]
			for j, p := range pos {
				r := rows[(j<<8|int(k[p]))*4:][:4:4]
				a0 ^= r[0]
				a1 ^= r[1]
				a2 ^= r[2]
				a3 ^= r[3]
			}
			emit(dst, i, [4]uint64{a0, a1, a2, a3})
		}
	}
}

// emit unpacks one key's accumulated CRCs into dst[q][i], finalized.
func emit(dst [][]uint32, i int, acc [4]uint64) {
	for q, d := range dst {
		d[i] = fmix32(uint32(acc[q>>1] >> (32 * uint(q&1))))
	}
}
