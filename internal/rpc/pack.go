package rpc

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// PackFrame serializes a whole readout as one contiguous little-endian
// buffer — the binary frame side-channel's payload — plus the per-row
// register counts the receiver needs to slice it back apart. One
// contiguous buffer means the server transmits a stored epoch snapshot
// with zero per-request encoding work.
func PackFrame(rows [][]uint32) ([]byte, []int) {
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

// UnpackFrame decodes a contiguous frame back into rows. A dst with
// matching geometry (row count and per-row lengths) is filled in place and
// returned without allocating — the fleet merge tree recycles leaf buffers
// through here; mismatched rows are allocated fresh. A frame
// shorter than the announced geometry truncates the trailing rows to what
// is actually present rather than reading out of range.
func UnpackFrame(frame []byte, lens []int, dst [][]uint32) [][]uint32 {
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

// epochUnavailableToken marks "this daemon cannot serve that epoch (yet)"
// errors on the wire, so the fleet query plane can tell a straggling
// switch (poll again / skip per policy) from a broken one (fail). The
// control channel transports errors as strings, so classification is by
// token — the same idiom the repo uses for "no task".
const epochUnavailableToken = "epoch-unavailable"

// IsEpochUnavailable reports whether err is a daemon-side "epoch not
// readable here (yet)" rejection — the straggler signal.
func IsEpochUnavailable(err error) bool {
	return err != nil && strings.Contains(err.Error(), epochUnavailableToken)
}

// EpochUnavailableHave extracts the daemon's latest completed epoch from
// an epoch-unavailable error (-1 when absent), so straggler reports can
// say how far behind a switch is. Both sides of the format live in this
// package (see epochUnavailable in epoch.go).
func EpochUnavailableHave(err error) int {
	if err == nil {
		return -1
	}
	msg := err.Error()
	i := strings.LastIndex(msg, "latest completed epoch ")
	if i < 0 {
		return -1
	}
	have := -1
	if _, serr := fmt.Sscanf(msg[i:], "latest completed epoch %d", &have); serr != nil {
		return -1
	}
	return have
}

// IsNoEpochTask reports whether err is a daemon-side "no epoch task by
// that name" rejection — which an idempotent fleet-wide remove treats as
// already removed.
func IsNoEpochTask(err error) bool {
	return err != nil && strings.Contains(err.Error(), "no epoch task")
}
