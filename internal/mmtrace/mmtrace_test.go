package mmtrace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"flymon/internal/packet"
	"flymon/internal/trace"
)

func writeTraceFile(t *testing.T, ps []packet.Packet) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if err := w.WritePacket(&ps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.fmt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

func genPackets(n int) []packet.Packet {
	tr := trace.Generate(trace.Config{Flows: 16, Packets: n, Seed: 7})
	return tr.Packets
}

func TestOpenMapsAndDecodes(t *testing.T) {
	ps := genPackets(1000)
	path, _ := writeTraceFile(t, ps)
	tr, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if runtime.GOOS == "linux" && !tr.Mapped() {
		t.Fatal("Open on linux should mmap")
	}
	if tr.Frames() != len(ps) {
		t.Fatalf("frames = %d, want %d", tr.Frames(), len(ps))
	}
	if tr.Bytes() != len(ps)*trace.RecordSize {
		t.Fatalf("bytes = %d", tr.Bytes())
	}
	// Spot-check lazy views and full decodes across the file.
	for _, i := range []int{0, 1, len(ps) / 2, len(ps) - 1} {
		v := tr.At(i)
		if v.SrcIP() != ps[i].SrcIP || v.TimestampNs() != ps[i].TimestampNs {
			t.Fatalf("frame %d: lazy fields differ", i)
		}
		var p packet.Packet
		v.Decode(&p)
		if p != ps[i] {
			t.Fatalf("frame %d: decode differs", i)
		}
	}
	// Batch paging covers the whole trace in order.
	buf := make([]packet.Packet, 130)
	got := 0
	for off := 0; ; {
		n, err := tr.DecodeBatch(off, buf)
		for i := 0; i < n; i++ {
			if buf[i] != ps[off+i] {
				t.Fatalf("frame %d differs in batch decode", off+i)
			}
		}
		off += n
		got += n
		if err == io.EOF || n < len(buf) {
			break
		}
	}
	if got != len(ps) {
		t.Fatalf("batch decode covered %d frames, want %d", got, len(ps))
	}
}

func TestOpenReaderAtFallbackMatchesMmap(t *testing.T) {
	ps := genPackets(257)
	path, encoded := writeTraceFile(t, ps)
	mapped, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	fb, err := OpenReaderAt(bytes.NewReader(encoded), int64(len(encoded)))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if fb.Mapped() {
		t.Fatal("ReaderAt path must not report mapped")
	}
	if fb.Frames() != mapped.Frames() {
		t.Fatalf("frame counts differ: %d vs %d", fb.Frames(), mapped.Frames())
	}
	var a, b packet.Packet
	for i := 0; i < fb.Frames(); i++ {
		mapped.At(i).Decode(&a)
		fb.At(i).Decode(&b)
		if a != b {
			t.Fatalf("frame %d differs between mmap and fallback", i)
		}
	}
}

func TestOpenTruncated(t *testing.T) {
	ps := genPackets(10)
	path, encoded := writeTraceFile(t, ps)
	if err := os.WriteFile(path, encoded[:len(encoded)-11], 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := Open(path)
	if tr == nil {
		t.Fatalf("truncated file must still open, got %v", err)
	}
	defer tr.Close()
	var te *trace.TruncatedError
	if !errors.As(err, &te) || te.Record != 9 {
		t.Fatalf("open error = %v, want TruncatedError{Record: 9}", err)
	}
	if !errors.Is(tr.Err(), io.ErrUnexpectedEOF) {
		t.Fatal("Err() must match io.ErrUnexpectedEOF")
	}
	if tr.Frames() != 9 {
		t.Fatalf("frames = %d, want the 9 intact records", tr.Frames())
	}
	// The intact prefix still decodes, and the stream end reports the
	// truncation.
	buf := make([]packet.Packet, 16)
	n, derr := tr.DecodeBatch(0, buf)
	if n != 9 {
		t.Fatalf("decoded %d frames, want 9", n)
	}
	if !errors.As(derr, &te) || te.Record != 9 {
		t.Fatalf("DecodeBatch end = %v, want the truncation", derr)
	}
}

func TestOpenRejectsBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.fmt")
	if err := os.WriteFile(path, []byte("this is not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if tr, err := Open(path); err == nil || tr != nil {
		t.Fatalf("bad magic accepted: %v %v", tr, err)
	}
	if tr, err := Open(filepath.Join(t.TempDir(), "nope.fmt")); err == nil || tr != nil {
		t.Fatalf("missing file accepted: %v %v", tr, err)
	}
	if _, err := NewFromBytes(nil); !errors.Is(err, trace.ErrBadMagic) {
		t.Fatalf("nil bytes = %v, want ErrBadMagic", err)
	}
}

func TestEmptyTrace(t *testing.T) {
	path, _ := writeTraceFile(t, nil)
	tr, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Frames() != 0 {
		t.Fatalf("frames = %d", tr.Frames())
	}
	if n, err := tr.DecodeBatch(0, make([]packet.Packet, 4)); n != 0 || err != io.EOF {
		t.Fatalf("empty trace DecodeBatch = (%d, %v), want (0, EOF)", n, err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	path, _ := writeTraceFile(t, genPackets(5))
	tr, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFromPacketsRoundTrip: FromPackets is the inverse of DecodeRange — the
// frames decode back to the input, the buffer is byte-for-byte what the
// file writer emits (so an encoded trace and an opened one are one form),
// a Prefix aliases the leading frames, and zero packets make a valid empty
// trace a Replayer accepts.
func TestFromPacketsRoundTrip(t *testing.T) {
	ps := genPackets(777)
	tr := FromPackets(ps)
	if tr.Frames() != len(ps) || tr.Mapped() || tr.Err() != nil {
		t.Fatalf("frames = %d (want %d), mapped = %v, err = %v", tr.Frames(), len(ps), tr.Mapped(), tr.Err())
	}
	got := make([]packet.Packet, len(ps))
	tr.DecodeRange(0, got)
	if !reflect.DeepEqual(got, ps) {
		t.Fatal("DecodeRange(FromPackets(ps)) differs from ps")
	}
	_, file := writeTraceFile(t, ps)
	if !bytes.Equal(tr.raw, file) {
		t.Fatal("FromPackets encoding differs from trace.Writer's file bytes")
	}

	for _, n := range []int{-1, 0, len(ps), len(ps) + 1} {
		if tr.Prefix(n) != tr {
			t.Fatalf("Prefix(%d) must be the trace itself", n)
		}
	}
	head := tr.Prefix(100)
	if head.Frames() != 100 || !bytes.Equal(head.Span(0, 100), tr.Span(0, 100)) {
		t.Fatalf("Prefix(100): %d frames, or bytes differ from the parent's", head.Frames())
	}
	if err := head.Close(); err != nil || tr.Frames() != len(ps) || tr.At(0).SrcIP() != ps[0].SrcIP {
		t.Fatalf("closing a prefix view must leave the parent readable (err %v)", err)
	}

	empty := FromPackets(nil)
	if empty.Frames() != 0 || empty.Bytes() != 0 {
		t.Fatalf("empty trace: %d frames, %d bytes", empty.Frames(), empty.Bytes())
	}
	rep, err := NewReplayer(ReplayConfig{Traces: []*Trace{empty}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr, lo, hi := rep.NextFrames(0); tr != nil {
		t.Fatalf("empty replay handed out frames [%d, %d)", lo, hi)
	}
}
