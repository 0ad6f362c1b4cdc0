package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"flymon/internal/controlplane"
	"flymon/internal/packet"
)

// encodeFrame writes rows through the codec's frame writer.
func encodeFrame(t *testing.T, rows [][]uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeRows(w, rows); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// leFrame is the portable encoding a frame must equal on every host.
func leFrame(rows [][]uint32) []byte {
	var b []byte
	for _, row := range rows {
		for _, v := range row {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
	}
	return b
}

// sameRows compares rows by length and value (nil and empty rows agree).
func sameRows(a, b [][]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func rowLens(rows [][]uint32) []int {
	lens := make([]int, len(rows))
	for i, row := range rows {
		lens[i] = len(row)
	}
	return lens
}

// TestRowBytesMatchPortableEncoding holds the byte view to the wire format:
// the fast write path's bytes equal a per-element little-endian encoding
// and read back to the rows. The other host's branch runs here directly:
// swapped, a row's memory is its encoding in the other byte order — the
// wire bytes where that order is native — and swapping those bytes back in
// place restores the row.
func TestRowBytesMatchPortableEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func(n int) []uint32 {
		row := make([]uint32, n)
		for i := range row {
			row[i] = rng.Uint32()
		}
		return row
	}
	var other binary.AppendByteOrder = binary.BigEndian
	if !nativeLE {
		other = binary.LittleEndian
	}
	cases := map[string][][]uint32{
		"zero rows": nil,
		"one empty": {{}},
		// 6,000 registers are 24 KB, past bufio's buffer: the large-write
		// and large-read paths that skip the buffer run too.
		"mixed": {random(3), {}, random(6000), random(1), random(4096)},
	}
	for name, rows := range cases {
		t.Run(name, func(t *testing.T) {
			want := leFrame(rows)
			if got := encodeFrame(t, rows); !bytes.Equal(got, want) {
				t.Fatalf("writeRows: %d bytes, differs from the little-endian encoding (%d bytes)", len(got), len(want))
			}
			lens := rowLens(rows)
			if err := frameGeometry(lens, len(want)); err != nil {
				t.Fatal(err)
			}
			got, err := readRows(bytes.NewReader(want), lens, nil)
			if err != nil || !sameRows(got, rows) {
				t.Fatalf("readRows = %v: rows differ", err)
			}
			for i, row := range rows {
				var enc []byte
				for _, v := range row {
					enc = other.AppendUint32(enc, v)
				}
				swapped := append([]uint32(nil), row...)
				swapBytes(swapped)
				if !bytes.Equal(rowBytes(swapped), enc) {
					t.Fatalf("swapBytes: row %d's memory is not its %v encoding", i, other)
				}
				back := make([]uint32, len(row))
				copy(rowBytes(back), enc)
				swapBytes(back)
				if !sameRows([][]uint32{back}, [][]uint32{row}) {
					t.Fatalf("swapBytes in place: row %d does not decode back", i)
				}
			}
		})
	}
}

// TestReadEpochRejectsFrameGeometry: a read_epoch answer whose frame does
// not match its row_lens is a transport error, never rows of the wrong
// length or a crash, and the stream stays usable after it.
func TestReadEpochRejectsFrameGeometry(t *testing.T) {
	cases := []struct {
		name  string
		lens  string
		frame int
	}{
		{"short frame", "[4,4]", 8},
		{"missing frame", "[4,4]", 0},
		{"negative length", "[-1]", 4},
		{"oversized length", "[4611686018427387904,-4611686018427387904,1]", 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptedServer(t, func(conn net.Conn) {
				c := newCodec(conn)
				for {
					var req Request
					if err := c.read(&req); err != nil {
						return
					}
					if req.Method != MethodReadEpoch {
						c.write(&Response{ID: req.ID, Result: []byte(`{"value":true}`)})
						continue
					}
					line, _ := json.Marshal(&Response{ID: req.ID,
						Result: []byte(`{"epoch":1,"row_lens":` + tc.lens + `}`), Frame: tc.frame})
					conn.Write(append(append(line, '\n'), make([]byte, tc.frame)...))
				}
			})
			c, err := DialOptions(addr, testOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			res, err := c.ReadEpoch("ep", 1)
			var te *TransportError
			if !errors.As(err, &te) || !strings.Contains(err.Error(), "row_lens") {
				t.Fatalf("ReadEpoch = %v (row_lens %v), want the geometry check's transport error", err, res.RowLens)
			}
			if err := c.Ping(); err != nil {
				t.Fatalf("call after the refused readout: %v", err)
			}
		})
	}
}

// goodAnswer is a well-formed readout answering request id.
func goodAnswer(id uint64, rows [][]uint32) []byte {
	res, _ := json.Marshal(EpochRegistersResult{Epoch: 1, RegistersResult: RegistersResult{RowLens: rowLens(rows)}})
	frame := leFrame(rows)
	line, _ := json.Marshal(&Response{ID: id, Result: res, Frame: len(frame)})
	return append(append(line, '\n'), frame...)
}

// FuzzReadResponseFrame feeds arbitrary peer bytes — one response line and
// a frame — to the client's response reader for request 5, followed by
// well-formed answers to requests 5 and 6. The read must not panic, must
// end in an error or in rows shaped by row_lens holding the little-endian
// decoding of the frame it consumed, and — when the peer framed its answer
// honestly (the line parses, its ID is 5 or stale, its frame field is the
// frame's length) — must leave the stream in sync for request 6.
func FuzzReadResponseFrame(f *testing.F) {
	good5 := [][]uint32{{1, 2, 3}, {0xdeadbeef}, {}}
	good6 := [][]uint32{{6, 7}, {}, {8}}
	f.Fuzz(func(t *testing.T, line, frame []byte, shape uint8) {
		line = bytes.ReplaceAll(bytes.ReplaceAll(line, []byte{'\n'}, nil), []byte{'\r'}, nil)
		var env Response
		parsed := json.Unmarshal(line, &env) == nil
		body := append(append(append([]byte(nil), line...), '\n'), frame...)
		stream := append(append(append([]byte(nil), body...), goodAnswer(5, good5)...), goodAnswer(6, good6)...)
		var dst [][]uint32
		switch shape % 4 {
		case 1:
			dst = [][]uint32{make([]uint32, 3), make([]uint32, 1), nil}
		case 2:
			dst = [][]uint32{make([]uint32, 1)}
		case 3:
			var r EpochRegistersResult
			if parsed && json.Unmarshal(env.Result, &r) == nil && len(r.RowLens) < 8 {
				for _, l := range r.RowLens {
					if l < 0 || l > 1024 {
						dst = nil
						break
					}
					dst = append(dst, make([]uint32, l))
				}
			}
		}
		c := &codec{r: bufio.NewReader(bytes.NewReader(stream)), w: bufio.NewWriter(io.Discard)}
		res := EpochRegistersResult{RegistersResult: RegistersResult{rows: dst}}
		err := c.readResponse(5, &res)
		if err == nil {
			rows := res.FrameRows(nil)
			want := good5
			if parsed && env.ID == 5 {
				consumed := stream[len(line)+1 : len(line)+1+env.Frame]
				want = make([][]uint32, len(res.RowLens))
				for i, l := range res.RowLens {
					for ; l > 0; l-- {
						if len(consumed) < 4 {
							t.Fatalf("row_lens %v read past the %d-byte frame", res.RowLens, env.Frame)
						}
						want[i] = append(want[i], binary.LittleEndian.Uint32(consumed))
						consumed = consumed[4:]
					}
				}
			} else if !parsed || env.Frame != len(frame) {
				want = rows // a dishonest stale frame shifts the stream: shape only
			}
			if len(rows) != len(res.RowLens) {
				t.Fatalf("%d rows for row_lens %v", len(rows), res.RowLens)
			}
			for i, row := range rows {
				if len(row) != res.RowLens[i] {
					t.Fatalf("row %d has %d registers, row_lens %v", i, len(row), res.RowLens)
				}
			}
			if !sameRows(rows, want) {
				t.Fatalf("rows %v, want %v", rows, want)
			}
		}
		if !parsed || env.ID > 5 || env.Frame != len(frame) {
			return
		}
		next := EpochRegistersResult{}
		if nerr := c.readResponse(6, &next); nerr != nil || !sameRows(next.FrameRows(nil), good6) {
			t.Fatalf("after %v, the next answer reads %v, %v", err, next.FrameRows(nil), nerr)
		}
	})
}

// bigEpoch deploys a 3 × 16,384 epoch task, feeds it, rotates it to epoch
// 1 and returns the server, its client and one readout's byte count.
func bigEpoch(t *testing.T) (*Server, *Client, int) {
	t.Helper()
	s, c := startServer(t)
	spec := controlplane.TaskSpec{Name: "big", Key: packet.KeyFiveTuple,
		Attribute: controlplane.AttrFrequency, MemBuckets: 16384, D: 3}
	if _, err := c.EpochDeploy(spec); err != nil {
		t.Fatal(err)
	}
	feed(t, s, 1)
	if _, err := c.EpochRotate("big", 1); err != nil {
		t.Fatal(err)
	}
	return s, c, 4 * 3 * 16384
}

// allocBytes is the heap bytes allocated across n runs of op, per run.
func allocBytes(n int, op func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestEpochReadZeroAllocRows: reading an epoch into a buffer of its
// geometry fills the buffer and allocates no row storage — what is left is
// the request and the JSON envelope on both ends, well under one row.
func TestEpochReadZeroAllocRows(t *testing.T) {
	_, c, size := bigEpoch(t)
	first, err := c.ReadEpoch("big", 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := first.FrameRows(nil)
	keep := &buf[0][0]
	per := allocBytes(20, func() {
		res, err := c.ReadEpochInto("big", 1, buf)
		if err != nil {
			t.Fatal(err)
		}
		if rows := res.FrameRows(nil); &rows[0][0] != keep || !sameRows(rows, first.FrameRows(nil)) {
			t.Fatal("a geometry-matched read must land in the buffer it was given")
		}
	})
	t.Logf("%.0f B per %d-byte epoch read", per, size)
	if per >= 8<<10 {
		t.Fatalf("an epoch read into a matched buffer allocates %.0f B, want < 8 KB", per)
	}
}

// TestEpochRotateZeroAllocFrame: a daemon rotation allocates the one copy
// ReadRegisters makes of the frozen registers and little else — the
// snapshot is its own frame, nothing packs it — and its answer, the
// snapshot's rows, lands in the caller's geometry-matched buffer.
func TestEpochRotateZeroAllocFrame(t *testing.T) {
	_, c, size := bigEpoch(t)
	first, err := c.ReadEpoch("big", 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := first.FrameRows(nil)
	keep := &buf[0][0]
	next := 1
	per := allocBytes(4, func() {
		next++
		res, err := c.EpochRotateInto("big", next, buf)
		if err != nil {
			t.Fatal(err)
		}
		if rows := res.FrameRows(nil); res.Epoch != next || &rows[0][0] != keep {
			t.Fatalf("rotation to %d answered epoch %d outside the buffer it was given", next, res.Epoch)
		}
	})
	t.Logf("%.0f B per rotation, readout %d B", per, size)
	if per > 1.1*float64(size) {
		t.Fatalf("a rotation allocates %.0f B, want ≤ 1.1 × the %d-byte readout", per, size)
	}
}

// TestConcurrentEpochReadsShareSnapshots: read_epoch writes the stored rows
// themselves, so concurrent readers share one snapshot while rotations
// store new ones and evict old ones. Under -race this holds the snapshot
// to immutable-once-stored; every read sees one epoch's rows whole.
func TestConcurrentEpochReadsShareSnapshots(t *testing.T) {
	s, c, _ := bigEpoch(t)
	addr := c.Addr()
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rc, err := DialOptions(addr, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := rc.ReadEpoch("big", 0)
				if err != nil {
					t.Error(err)
					return
				}
				if rows := res.FrameRows(nil); len(rows) != 3 || len(rows[0]) != 16384 {
					t.Errorf("epoch %d read as %d rows", res.Epoch, len(rows))
					return
				}
			}
		}()
	}
	for e := 2; e <= 8; e++ {
		feed(t, s, int64(e))
		if _, err := c.EpochRotate("big", e); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
