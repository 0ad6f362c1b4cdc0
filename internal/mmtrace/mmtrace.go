// Package mmtrace is FlyMon's trace-ingestion layer — the one form in
// which more than one packet reaches the compiled engine. A Trace is a flat
// run of fixed-size FLYMTRC records, either mapped from a file (Open, with
// a portable io.ReaderAt fallback when mapping is unavailable) or encoded
// from packets already in memory (FromPackets); records are exposed as lazy
// FrameViews over those bytes, and the engine extracts key columns straight
// from them, one span at a time — no per-packet materialization, no
// per-replay allocation, no GC pressure proportional to trace size.
//
// On top of a Trace, a multi-producer/multi-consumer Ring (ring.go)
// distributes frame ranges to the engine's persistent worker pool, and a
// Replayer (replay.go) wires the two together as the core.FrameSource, so
// replay saturates the pool without per-span channel or allocation
// overhead. Decoding a trace back into []packet.Packet (DecodeRange,
// DecodeBatch) exists for tools and for the sequential reference the
// differential tests compare the engine against.
package mmtrace

import (
	"fmt"
	"io"
	"os"

	"flymon/internal/packet"
	"flymon/internal/trace"
)

// Trace is an immutable, random-access view of one FLYMTRC trace: the
// record region of an mmapped file (or of a buffer the fallback path read).
// All methods are safe for concurrent readers.
type Trace struct {
	// recs is the record region: whole records only, directly aliasing the
	// mapped file when mapped is true.
	recs   []byte
	frames int
	// raw is the full mapping handed back to munmap (nil when not mapped).
	raw    []byte
	mapped bool
	// truncErr records a file that ends mid-record: the complete frames
	// remain readable; DecodeBatch surfaces the error at the end of the
	// stream, mirroring trace.Reader.
	truncErr error
}

// Open maps the trace file at path. On platforms (or filesystems) where
// mmap fails it falls back to reading the file through io.ReaderAt into
// memory, so callers never need to care which path they got — Mapped
// reports it for diagnostics.
//
// A file that ends in the middle of a record still opens: Open returns the
// Trace over the complete frames together with a *trace.TruncatedError
// (matching io.ErrUnexpectedEOF) naming the truncated record. Callers that
// demand integrity treat the error as fatal; tools like tracedump warn and
// keep the readable prefix.
func Open(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mmtrace: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("mmtrace: %w", err)
	}
	size := st.Size()
	if data, err := mapFile(f, size); err == nil {
		// The mapping outlives the descriptor; the file can be closed now.
		f.Close()
		t, terr := newTrace(data, true)
		if t == nil {
			unmapFile(data)
			return nil, terr
		}
		return t, terr
	}
	defer f.Close()
	return OpenReaderAt(f, size)
}

// OpenReaderAt is the portable fallback: it reads a trace of the given size
// from r into memory and serves frames from that buffer. It costs one
// allocation the size of the trace — the price of not having mmap — but
// every downstream path (FrameView, DecodeBatch, the Ring) behaves
// identically to the mapped case.
func OpenReaderAt(r io.ReaderAt, size int64) (*Trace, error) {
	if size < 0 || size > int64(maxMapBytes) {
		return nil, fmt.Errorf("mmtrace: trace size %d out of range", size)
	}
	data := make([]byte, size)
	if _, err := readFullAt(r, data); err != nil {
		return nil, fmt.Errorf("mmtrace: reading trace: %w", err)
	}
	return NewFromBytes(data)
}

// NewFromBytes builds a Trace over an in-memory encoding (header included).
// The buffer must not be mutated while the Trace is in use.
func NewFromBytes(data []byte) (*Trace, error) {
	return newTrace(data, false)
}

// FromPackets encodes ps into one in-memory Trace — header plus one
// trace.EncodeRecord per packet, the inverse of DecodeRange — so packets a
// caller generated or captured take the same frame path as a trace file.
func FromPackets(ps []packet.Packet) *Trace {
	hdr := trace.Header()
	data := make([]byte, trace.HeaderSize+len(ps)*trace.RecordSize)
	copy(data, hdr[:])
	recs := data[trace.HeaderSize:]
	for i := range ps {
		trace.EncodeRecord(recs[i*trace.RecordSize:], &ps[i])
	}
	return &Trace{recs: recs, frames: len(ps), raw: data}
}

func newTrace(data []byte, mapped bool) (*Trace, error) {
	if err := trace.ValidateHeader(data); err != nil {
		return nil, err
	}
	body := data[trace.HeaderSize:]
	frames := len(body) / trace.RecordSize
	t := &Trace{
		recs:   body[:frames*trace.RecordSize],
		frames: frames,
		raw:    data,
		mapped: mapped,
	}
	if len(body)%trace.RecordSize != 0 {
		t.truncErr = &trace.TruncatedError{Record: frames}
		return t, t.truncErr
	}
	return t, nil
}

// maxMapBytes bounds a single trace mapping; far above any real trace, it
// only guards against corrupt sizes on 32-bit builds.
const maxMapBytes = 1 << 46

// readFullAt fills b from r starting at offset 0, tolerating short reads.
func readFullAt(r io.ReaderAt, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		m, err := r.ReadAt(b[n:], int64(n))
		n += m
		if err == io.EOF && n == len(b) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Frames returns the number of complete records in the trace.
func (t *Trace) Frames() int { return t.frames }

// Prefix returns a view of the first n frames (n <= 0 or n >= Frames
// returns t itself). The view aliases t's records and owns no mapping:
// closing it is a no-op, and it is invalid once t is closed.
func (t *Trace) Prefix(n int) *Trace {
	if n <= 0 || n >= t.frames {
		return t
	}
	return &Trace{recs: t.recs[:n*trace.RecordSize], frames: n}
}

// Mapped reports whether the trace is served by an mmap (false = the
// io.ReaderAt fallback buffered it in memory).
func (t *Trace) Mapped() bool { return t.mapped }

// Bytes returns the size of the record region in bytes.
func (t *Trace) Bytes() int { return len(t.recs) }

// Err returns the deferred truncation error (nil for a well-formed trace).
func (t *Trace) Err() error { return t.truncErr }

// At returns a lazy view of frame i. It aliases the mapped buffer: no
// bytes are copied or decoded until a field accessor runs.
func (t *Trace) At(i int) FrameView {
	return FrameView(t.recs[i*trace.RecordSize : (i+1)*trace.RecordSize])
}

// Span returns the raw record bytes of frames [lo, hi) — hi-lo contiguous
// RecordSize windows aliasing the mapped buffer. The FrameView-native
// engine walks spans directly (core.Snapshot.ProcessFrames), so the only
// per-frame memory traffic is the fields the compiled rules actually load.
func (t *Trace) Span(lo, hi int) []byte {
	return t.recs[lo*trace.RecordSize : hi*trace.RecordSize]
}

// DecodeBatch decodes up to len(dst) frames starting at frame `start` into
// dst, reusing the caller-owned scratch, and returns the count. At the end
// of the trace it returns io.EOF — or the *trace.TruncatedError when the
// file ended mid-record — matching trace.Reader's streaming contract so the
// two paths are drop-in interchangeable.
func (t *Trace) DecodeBatch(start int, dst []packet.Packet) (int, error) {
	if start >= t.frames {
		return 0, t.eof()
	}
	n := t.frames - start
	if n > len(dst) {
		n = len(dst)
	}
	t.DecodeRange(start, dst[:n])
	if n < len(dst) {
		// The caller asked past the end: surface the stream end now, with
		// the complete frames (mirrors Reader.ReadBatch's truncation case).
		if t.truncErr != nil {
			return n, t.truncErr
		}
		return n, nil
	}
	return n, nil
}

// DecodeRange decodes exactly len(dst) frames starting at `start`, with
// bounds established once per range rather than per record. start and
// len(dst) must lie within Frames.
func (t *Trace) DecodeRange(start int, dst []packet.Packet) {
	b := t.recs[start*trace.RecordSize:]
	for i := range dst {
		trace.DecodeRecord(b[i*trace.RecordSize:], &dst[i])
	}
}

func (t *Trace) eof() error {
	if t.truncErr != nil {
		return t.truncErr
	}
	return io.EOF
}

// Close releases the mapping (a no-op for in-memory traces). The Trace and
// every FrameView derived from it are invalid afterwards.
func (t *Trace) Close() error {
	if !t.mapped || t.raw == nil {
		t.raw, t.recs = nil, nil
		return nil
	}
	raw := t.raw
	t.raw, t.recs, t.mapped = nil, nil, false
	return unmapFile(raw)
}
