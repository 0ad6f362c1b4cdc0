// Package hashing models the hash resources of an RMT switch: a family of
// independent hash calculation units (CRC32 with distinct polynomials, as on
// Tofino) whose inputs can be re-masked at runtime ("dynamic hashing",
// tna_dyn_hashing in SDE ≥ 9.7), plus the key-combination tricks FlyMon
// layers on top — XOR of two compressed keys and sub-part bit-range
// selection to emulate independent hash functions from one compressed key.
package hashing

import (
	"fmt"
	"hash/crc32"

	"flymon/internal/packet"
)

// Polynomials for independent CRC32 hash units. Tofino exposes a small set
// of CRC polynomials per hash calculation unit; using distinct reversed
// polynomials gives practically independent 32-bit digests.
var polynomials = []uint32{
	crc32.IEEE,       // 0xEDB88320
	crc32.Castagnoli, // 0x82F63B78
	crc32.Koopman,    // 0xEB31D82E
	0xD419CC15,       // CRC-32Q (reversed)
	0x992C1A4C,       // CRC-32/AUTOSAR family member (reversed 0x32583499)
	0xB798B438,       // CRC-32/XFER family variant
	0xA833982B,       // CRC-32D (reversed)
	0x8F6E37A0,       // CRC-32/CD-ROM-EDC variant
}

// MaxUnits is the number of distinct hash polynomials available.
func MaxUnits() int { return len(polynomials) }

// Unit is one hash calculation/distribution unit. Its polynomial is fixed
// at "compile time" (construction); its input mask — which candidate-key
// fields, and which bits of each, participate — is reconfigurable at
// runtime, modelling the dynamic hashing feature the paper relies on.
type Unit struct {
	index int
	table *Table8
	mask  [packet.NumFields]uint32
	live  bool
}

// NewUnit creates hash unit i (0 ≤ i < MaxUnits). Units with distinct
// indices use distinct polynomials and behave as independent hash functions.
func NewUnit(i int) *Unit {
	if i < 0 || i >= len(polynomials) {
		panic(fmt.Sprintf("hashing: unit index %d out of range [0,%d)", i, len(polynomials)))
	}
	return &Unit{index: i, table: tableFor(i)}
}

// Index returns the unit's hardware index.
func (u *Unit) Index() int { return u.index }

// Configure installs a hash-mask rule: from now on the unit digests the
// candidate key set under the given KeySpec. This is the runtime operation
// the control plane performs when a new compressed key is needed; it does
// not disturb traffic.
func (u *Unit) Configure(spec packet.KeySpec) {
	u.mask = spec.FieldMask()
	u.live = len(spec.Parts) > 0
}

// ConfigureMask installs a raw per-field mask (the wire form of a hash-mask
// rule).
func (u *Unit) ConfigureMask(mask [packet.NumFields]uint32) {
	u.mask = mask
	u.live = false
	for _, m := range mask {
		if m != 0 {
			u.live = true
			break
		}
	}
}

// Live reports whether the unit currently has a non-empty mask installed.
func (u *Unit) Live() bool { return u.live }

// Mask returns the currently installed per-field mask.
func (u *Unit) Mask() [packet.NumFields]uint32 { return u.mask }

// Hash digests packet p's candidate key set under the installed mask,
// producing the unit's compressed key. An unconfigured unit returns 0.
// The digest runs over the fixed-size canonical key on the caller's stack
// (slicing-by-8, no allocation).
func (u *Unit) Hash(p *packet.Packet) uint32 {
	if !u.live {
		return 0
	}
	k := packet.ExtractMasked(p, u.mask)
	return fmix32(u.table.ChecksumKey(&k))
}

// HashBytes digests an arbitrary canonical key. Exposed for baselines and
// tests that bypass the packet model.
func (u *Unit) HashBytes(b []byte) uint32 {
	return fmix32(u.table.Checksum(b))
}

// Hasher is an immutable handle on a unit's polynomial: it captures the
// CRC table (fixed at construction, like the hardware polynomial) but not
// the unit's reconfigurable mask. Compiled data-plane snapshots hold
// Hashers so concurrent packet processing never reads a unit's mutable
// mask state while the control plane reconfigures it.
type Hasher struct {
	table *Table8
	poly  uint8 // index into polynomials: names the table in a fused kernel's cache key
}

// Hasher returns the unit's immutable polynomial handle.
func (u *Unit) Hasher() Hasher { return Hasher{table: u.table, poly: uint8(u.index)} }

// Sum digests a pre-masked canonical key, producing the same compressed
// key Unit.Hash would for a packet extracted under the unit's mask. The
// key stays on the caller's stack: Sum is the snapshot fast path's digest
// and must not allocate.
func (h Hasher) Sum(k packet.CanonicalKey) uint32 {
	return fmix32(h.table.ChecksumKey(&k))
}

// SumKey is Sum over a caller-owned key, skipping the by-value copy. It is
// the one-polynomial reference the frame engine's fused kernel (Fused)
// must equal.
func (h Hasher) SumKey(k *packet.CanonicalKey) uint32 {
	return fmix32(h.table.ChecksumKey(k))
}

// fmix32 is a 32-bit avalanche finalizer (MurmurHash3's), modeling the bit
// scrambling of the hash distribution unit's output crossbar. Raw CRC32 is
// GF(2)-linear, so low-entropy structured inputs (sequential ports,
// adjacent addresses) would project onto degenerate sub-lattices in any
// fixed bit window; the finalizer restores the uniformity the sketches —
// and the paper's coupon draws — assume.
func fmix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85EBCA6B
	h ^= h >> 13
	h *= 0xC2B2AE35
	h ^= h >> 16
	return h
}

// SubKey extracts bits [lo, lo+width) of a 32-bit compressed key. FlyMon
// lets the CMUs of a group select different sub-parts of one compressed key
// to simulate independent hash calculations (§3.2, inspired by SketchLib).
// Width must be in (0, 32]; bits beyond position 31 wrap from the top.
func SubKey(key uint32, lo, width int) uint32 {
	if width <= 0 || width > 32 {
		panic(fmt.Sprintf("hashing: invalid subkey width %d", width))
	}
	lo %= 32
	if lo < 0 {
		lo += 32
	}
	rot := key
	if lo != 0 {
		rot = key>>uint(lo) | key<<uint(32-lo)
	}
	if width == 32 {
		return rot
	}
	return rot & ((1 << uint(width)) - 1)
}

// Combine XORs two compressed keys, the paper's trick to derive a composite
// key (e.g. C(SrcIP) ⊕ C(DstIP) for IP-pair) without another hash unit.
func Combine(a, b uint32) uint32 { return a ^ b }

// Family is a convenience bundle of n independent units sharing one key
// spec, used by the standalone sketch baselines (d rows of a CMS, the k
// probes of a Bloom filter, ...).
type Family struct {
	units []*Unit
}

// NewFamily builds n independent hash units, all configured for spec.
func NewFamily(n int, spec packet.KeySpec) *Family {
	if n > len(polynomials) {
		panic(fmt.Sprintf("hashing: family size %d exceeds %d available polynomials", n, len(polynomials)))
	}
	f := &Family{units: make([]*Unit, n)}
	for i := range f.units {
		f.units[i] = NewUnit(i)
		f.units[i].Configure(spec)
	}
	return f
}

// Size returns the number of units in the family.
func (f *Family) Size() int { return len(f.units) }

// Hash returns unit i's digest of packet p.
func (f *Family) Hash(i int, p *packet.Packet) uint32 { return f.units[i].Hash(p) }

// HashBytes returns unit i's digest of raw bytes b.
func (f *Family) HashBytes(i int, b []byte) uint32 { return f.units[i].HashBytes(b) }
