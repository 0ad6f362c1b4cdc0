// Package packet defines the packet and flow-key model shared by the FlyMon
// data plane, the sketch baselines, and the traffic generators.
//
// A Packet carries the candidate key set FlyMon operates on — the 5-tuple
// plus an ingress timestamp — together with the standard metadata the paper
// uses as attribute parameters (packet size, queue length, queue delay).
//
// Flow keys are value types (inspired by gopacket's Endpoint/Flow): a KeySpec
// describes which header fields, and which prefix of each, form the key of a
// measurement task; Extract produces a fixed-size canonical byte encoding
// suitable for hashing and for use as a map key.
package packet

import (
	"fmt"
	"strings"
)

// Packet is a single observed packet. All fields are plain values so packets
// can be generated, copied, and replayed without allocation.
type Packet struct {
	SrcIP   uint32 // IPv4 source address, host byte order
	DstIP   uint32 // IPv4 destination address, host byte order
	SrcPort uint16
	DstPort uint16
	Proto   uint8

	// Size is the wire length of the packet in bytes.
	Size uint32

	// TimestampNs is the ingress timestamp in nanoseconds since the start
	// of the trace.
	TimestampNs uint64

	// QueueLength and QueueDelayNs are standard metadata exposed by the
	// switch ingress/egress pipeline; FlyMon tasks may use them as
	// attribute parameters (e.g. Max(QueueLength) for congestion).
	QueueLength  uint32
	QueueDelayNs uint32
}

// Field identifies one header field of the candidate key set.
type Field uint8

// Candidate key fields. The paper's prototype sets the candidate key set to
// the 5-tuple together with a timestamp (§5, Setting).
const (
	FieldSrcIP Field = iota
	FieldDstIP
	FieldSrcPort
	FieldDstPort
	FieldProto
	FieldTimestamp

	numFields
)

// NumFields is the number of distinct candidate key fields.
const NumFields = int(numFields)

// Bits returns the width of the field in bits.
func (f Field) Bits() int {
	switch f {
	case FieldSrcIP, FieldDstIP, FieldTimestamp:
		return 32
	case FieldSrcPort, FieldDstPort:
		return 16
	case FieldProto:
		return 8
	default:
		return 0
	}
}

// String implements fmt.Stringer.
func (f Field) String() string {
	switch f {
	case FieldSrcIP:
		return "SrcIP"
	case FieldDstIP:
		return "DstIP"
	case FieldSrcPort:
		return "SrcPort"
	case FieldDstPort:
		return "DstPort"
	case FieldProto:
		return "Proto"
	case FieldTimestamp:
		return "Timestamp"
	default:
		return fmt.Sprintf("Field(%d)", uint8(f))
	}
}

// value returns the field value of p, left-aligned in a uint32.
func (p *Packet) value(f Field) uint32 {
	switch f {
	case FieldSrcIP:
		return p.SrcIP
	case FieldDstIP:
		return p.DstIP
	case FieldSrcPort:
		return uint32(p.SrcPort)
	case FieldDstPort:
		return uint32(p.DstPort)
	case FieldProto:
		return uint32(p.Proto)
	case FieldTimestamp:
		return uint32(p.TimestampNs / 1000) // microsecond granularity
	default:
		return 0
	}
}

// FieldValue returns the raw value of field f in packet p.
func (p *Packet) FieldValue(f Field) uint32 { return p.value(f) }

// KeyPart selects a field and an optional prefix length. PrefixBits of zero
// means the full field width; for example {FieldSrcIP, 24} is SrcIP/24.
type KeyPart struct {
	Field      Field
	PrefixBits int
}

// EffectiveBits returns the number of significant bits the part contributes.
func (kp KeyPart) EffectiveBits() int {
	w := kp.Field.Bits()
	if kp.PrefixBits <= 0 || kp.PrefixBits > w {
		return w
	}
	return kp.PrefixBits
}

// mask returns the value mask implied by the prefix, aligned to the field's
// most-significant bits (CIDR-style).
func (kp KeyPart) mask() uint32 {
	w := kp.Field.Bits()
	eff := kp.EffectiveBits()
	if eff >= 32 {
		return ^uint32(0)
	}
	return (^uint32(0) << (w - eff)) & widthMask(w)
}

func widthMask(bits int) uint32 {
	if bits >= 32 {
		return ^uint32(0)
	}
	return (1 << bits) - 1
}

// String implements fmt.Stringer.
func (kp KeyPart) String() string {
	if kp.PrefixBits > 0 && kp.PrefixBits < kp.Field.Bits() {
		return fmt.Sprintf("%s/%d", kp.Field, kp.PrefixBits)
	}
	return kp.Field.String()
}

// KeySpec describes the flow key of a measurement task as an ordered list of
// key parts. The canonical encodings of two KeySpecs are comparable only if
// the specs are equal.
type KeySpec struct {
	Parts []KeyPart
}

// Common key specs.
var (
	KeySrcIP     = KeySpec{Parts: []KeyPart{{Field: FieldSrcIP}}}
	KeyDstIP     = KeySpec{Parts: []KeyPart{{Field: FieldDstIP}}}
	KeyIPPair    = KeySpec{Parts: []KeyPart{{Field: FieldSrcIP}, {Field: FieldDstIP}}}
	KeyFiveTuple = KeySpec{Parts: []KeyPart{
		{Field: FieldSrcIP}, {Field: FieldDstIP},
		{Field: FieldSrcPort}, {Field: FieldDstPort},
		{Field: FieldProto},
	}}
)

// NewKeySpec builds a KeySpec from full-width fields.
func NewKeySpec(fields ...Field) KeySpec {
	parts := make([]KeyPart, len(fields))
	for i, f := range fields {
		parts[i] = KeyPart{Field: f}
	}
	return KeySpec{Parts: parts}
}

// Bits returns the total significant bits of the key.
func (ks KeySpec) Bits() int {
	total := 0
	for _, p := range ks.Parts {
		total += p.EffectiveBits()
	}
	return total
}

// String implements fmt.Stringer.
func (ks KeySpec) String() string {
	if len(ks.Parts) == 0 {
		return "<empty>"
	}
	names := make([]string, len(ks.Parts))
	for i, p := range ks.Parts {
		names[i] = p.String()
	}
	return strings.Join(names, "-")
}

// Equal reports whether two key specs select the same key.
func (ks KeySpec) Equal(other KeySpec) bool {
	if len(ks.Parts) != len(other.Parts) {
		return false
	}
	for i := range ks.Parts {
		if ks.Parts[i].Field != other.Parts[i].Field ||
			ks.Parts[i].EffectiveBits() != other.Parts[i].EffectiveBits() {
			return false
		}
	}
	return true
}

// FieldMask returns, per candidate field, the value mask this spec applies
// (zero when the field is not part of the key). This is the representation
// dynamic hash units consume.
func (ks KeySpec) FieldMask() [NumFields]uint32 {
	var m [NumFields]uint32
	for _, p := range ks.Parts {
		m[p.Field] |= p.mask()
	}
	return m
}

// MaxKeyBytes is the canonical encoding size: every candidate field at full
// width (32+32+16+16+8+32 bits = 17 bytes), padded to 20 for alignment.
const MaxKeyBytes = 20

// CanonicalKey is the fixed-size canonical byte encoding of an extracted
// flow key, usable directly as a map key and as hash-unit input.
type CanonicalKey [MaxKeyBytes]byte

// Extract encodes the masked candidate fields of p into a CanonicalKey.
// Fields absent from the spec encode as zero; prefixes zero the low bits.
// The layout is fixed (SrcIP, DstIP, SrcPort, DstPort, Proto, Timestamp) so
// that the same bytes feed every hash unit, mirroring the data plane where
// the whole candidate key set is wired into the hash units and masks select
// the live portion.
func (ks KeySpec) Extract(p *Packet) CanonicalKey {
	return ExtractMasked(p, ks.FieldMask())
}

// ExtractMasked encodes the candidate fields of p under a per-field value
// mask into a CanonicalKey. This is the primitive the dynamic hashing layer
// uses: the mask is the runtime-installed hash-mask rule.
func ExtractMasked(p *Packet, mask [NumFields]uint32) CanonicalKey {
	var k CanonicalKey
	put32(k[0:4], p.SrcIP&mask[FieldSrcIP])
	put32(k[4:8], p.DstIP&mask[FieldDstIP])
	put16(k[8:10], uint16(uint32(p.SrcPort)&mask[FieldSrcPort]))
	put16(k[10:12], uint16(uint32(p.DstPort)&mask[FieldDstPort]))
	k[12] = uint8(uint32(p.Proto) & mask[FieldProto])
	put32(k[13:17], p.value(FieldTimestamp)&mask[FieldTimestamp])
	return k
}

// MaskKey encodes the mask itself in the canonical layout: byte i of a key
// extracted under mask can be nonzero only where byte i of MaskKey(mask) is.
func MaskKey(mask [NumFields]uint32) CanonicalKey {
	var k CanonicalKey
	put32(k[0:4], mask[FieldSrcIP])
	put32(k[4:8], mask[FieldDstIP])
	put16(k[8:10], uint16(mask[FieldSrcPort]))
	put16(k[10:12], uint16(mask[FieldDstPort]))
	k[12] = uint8(mask[FieldProto])
	put32(k[13:17], mask[FieldTimestamp])
	return k
}

func put32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func put16(b []byte, v uint16) {
	b[0] = byte(v >> 8)
	b[1] = byte(v)
}

// IPv4 assembles a host-order IPv4 address from dotted-quad octets.
func IPv4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// FormatIPv4 renders a host-order IPv4 address in dotted-quad form.
func FormatIPv4(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}
