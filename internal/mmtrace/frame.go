package mmtrace

import (
	"encoding/binary"

	"flymon/internal/packet"
	"flymon/internal/trace"
)

// FrameView is a lazy view of one trace record: a window into the mapped
// buffer that decodes individual fields only when asked. Tools that touch a
// couple of fields per record (filters, samplers, tracedump's summary pass)
// skip the cost of decoding the other seven; paths that need the whole
// packet call Decode, which uses the exact codec trace.Reader uses, so both
// ingestion paths are bit-identical by construction.
//
// A FrameView aliases its Trace's mapping and is invalid after Close.
type FrameView []byte

// SrcIP returns the record's source address.
func (v FrameView) SrcIP() uint32 { return binary.LittleEndian.Uint32(v[0:]) }

// DstIP returns the record's destination address.
func (v FrameView) DstIP() uint32 { return binary.LittleEndian.Uint32(v[4:]) }

// SrcPort returns the record's source port.
func (v FrameView) SrcPort() uint16 { return binary.LittleEndian.Uint16(v[8:]) }

// DstPort returns the record's destination port.
func (v FrameView) DstPort() uint16 { return binary.LittleEndian.Uint16(v[10:]) }

// Proto returns the record's IP protocol number.
func (v FrameView) Proto() uint8 { return v[12] }

// KeyWords returns the record's first 16 bytes as two little-endian words:
// the source address in the low and the destination address in the high
// half of w0; the source port, destination port and protocol from bit 0,
// 16 and 32 of w1, whose top 24 bits are the record's pad. It is every
// five-tuple field in two loads, for callers that mask the words whole
// (the frame engine's grouping key).
func (v FrameView) KeyWords() (w0, w1 uint64) {
	_ = v[15] // one bounds check for both words
	return binary.LittleEndian.Uint64(v[0:]), binary.LittleEndian.Uint64(v[8:])
}

// Size returns the record's packet length in bytes.
func (v FrameView) Size() uint32 { return binary.LittleEndian.Uint32(v[16:]) }

// TimestampNs returns the record's capture timestamp.
func (v FrameView) TimestampNs() uint64 { return binary.LittleEndian.Uint64(v[20:]) }

// QueueLength returns the record's switch queue depth.
func (v FrameView) QueueLength() uint32 { return binary.LittleEndian.Uint32(v[28:]) }

// QueueDelayNs returns the record's queueing delay.
func (v FrameView) QueueDelayNs() uint32 { return binary.LittleEndian.Uint32(v[32:]) }

// Decode materializes the full packet into p.
func (v FrameView) Decode(p *packet.Packet) { trace.DecodeRecord(v, p) }

// ExtractMasked fills k with the record's masked canonical key — the
// FrameView counterpart of packet.ExtractMasked, producing the identical
// byte encoding straight from the record bytes with no packet.Packet in
// between. k is caller-owned scratch and is fully overwritten, padding
// included, so reuse across frames is safe. This is the batch digest
// kernel's per-frame primitive (core.Snapshot.ProcessFrames).
func (v FrameView) ExtractMasked(mask *[packet.NumFields]uint32, k *packet.CanonicalKey) {
	_ = v[35] // one bounds check for every field read below
	be32(k[0:4], v.SrcIP()&mask[packet.FieldSrcIP])
	be32(k[4:8], v.DstIP()&mask[packet.FieldDstIP])
	be16(k[8:10], uint16(uint32(v.SrcPort())&mask[packet.FieldSrcPort]))
	be16(k[10:12], uint16(uint32(v.DstPort())&mask[packet.FieldDstPort]))
	k[12] = uint8(uint32(v.Proto()) & mask[packet.FieldProto])
	be32(k[13:17], uint32(v.TimestampNs()/1000)&mask[packet.FieldTimestamp])
	k[17], k[18], k[19] = 0, 0, 0
}

// be32/be16 write the canonical key's big-endian field encoding (the same
// layout packet.ExtractMasked emits).
func be32(b []byte, x uint32) {
	b[0] = byte(x >> 24)
	b[1] = byte(x >> 16)
	b[2] = byte(x >> 8)
	b[3] = byte(x)
}

func be16(b []byte, x uint16) {
	b[0] = byte(x >> 8)
	b[1] = byte(x)
}
