package rpc

import "encoding/binary"

// packFrame serializes a whole readout as one contiguous little-endian
// buffer — the binary frame side-channel's payload — plus the per-row
// register counts the receiver needs to slice it back apart. One
// contiguous buffer means the server transmits a stored epoch snapshot
// with zero per-request encoding work.
func packFrame(rows [][]uint32) ([]byte, []int) {
	total := 0
	lens := make([]int, len(rows))
	for i, row := range rows {
		lens[i] = len(row)
		total += len(row)
	}
	frame := make([]byte, 4*total)
	off := 0
	for _, row := range rows {
		for _, v := range row {
			binary.LittleEndian.PutUint32(frame[off:], v)
			off += 4
		}
	}
	return frame, lens
}

// unpackFrame decodes a contiguous frame back into rows. A dst with
// matching geometry (row count and per-row lengths) is filled in place and
// returned without allocating — the fleet merge tree recycles leaf buffers
// through here; mismatched rows are allocated fresh. A frame
// shorter than the announced geometry truncates the trailing rows to what
// is actually present rather than reading out of range.
func unpackFrame(frame []byte, lens []int, dst [][]uint32) [][]uint32 {
	if len(dst) != len(lens) {
		dst = make([][]uint32, len(lens))
	}
	off := 0
	for i, n := range lens {
		if remain := (len(frame) - off) / 4; n > remain {
			n = remain
		}
		row := dst[i]
		if len(row) != n {
			row = make([]uint32, n)
			dst[i] = row
		}
		for j := 0; j < n; j++ {
			row[j] = binary.LittleEndian.Uint32(frame[off:])
			off += 4
		}
	}
	return dst
}
