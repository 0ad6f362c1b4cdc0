package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"unsafe"
)

// nativeLE: a row's memory is its wire encoding (little-endian uint32s).
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// rowBytes views a row's memory as bytes (the tree's one use of unsafe), so
// bufio's large-write and large-read paths move rows to and from the socket.
func rowBytes(row []uint32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(row))), 4*len(row))
}

// swapBytes byte-swaps a row in place, for the wire on a big-endian host.
func swapBytes(row []uint32) {
	for i, v := range row {
		row[i] = bits.ReverseBytes32(v)
	}
}

// writeRows writes rows as one frame, row after row.
func writeRows(w *bufio.Writer, rows [][]uint32) error {
	for _, row := range rows {
		if !nativeLE {
			row = append([]uint32(nil), row...)
			swapBytes(row)
		}
		if _, err := w.Write(rowBytes(row)); err != nil {
			return err
		}
	}
	return nil
}

// frameGeometry checks, before anything is allocated, that lens slices a
// frame of n ≤ maxLine bytes exactly: no negative length, 4·Σlens == n.
func frameGeometry(lens []int, n int) error {
	total := 0
	for _, l := range lens {
		if l < 0 || l > maxLine/4-total {
			total = -1
			break
		}
		total += l
	}
	if 4*total != n {
		return fmt.Errorf("rpc: %d row_lens do not slice a %d-byte frame", len(lens), n)
	}
	return nil
}

// readRows reads a frame that passed frameGeometry into dst, in place where
// dst has the announced geometry and into fresh rows elsewhere.
func readRows(r io.Reader, lens []int, dst [][]uint32) ([][]uint32, error) {
	if len(dst) != len(lens) {
		dst = make([][]uint32, len(lens))
	}
	for i, n := range lens {
		if len(dst[i]) != n {
			dst[i] = make([]uint32, n)
		}
		if _, err := io.ReadFull(r, rowBytes(dst[i])); err != nil {
			return dst, fmt.Errorf("rpc: reading %d-byte frame row: %w", 4*n, err)
		}
		if !nativeLE {
			swapBytes(dst[i])
		}
	}
	return dst, nil
}
