package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"flymon/internal/packet"
)

// Binary trace format: a fixed 8-byte header ("FLYMTRC" + version) followed
// by fixed-width little-endian records. The format exists so generated
// workloads can be saved once and replayed identically by the daemon, the
// bench harness, and the examples. The record layout is exported (RecordSize,
// DecodeRecord, EncodeRecord) so the mmap ingestion layer (internal/mmtrace)
// can decode frames straight out of a mapped file without going through a
// Reader.
//
// Record layout (little-endian, offsets in bytes):
//
//	0  SrcIP   u32     16 Size         u32
//	4  DstIP   u32     20 TimestampNs  u64
//	8  SrcPort u16     28 QueueLength  u32
//	10 DstPort u16     32 QueueDelayNs u32
//	12 Proto   u8
//	13 3 pad bytes (zero)

var magic = [HeaderSize]byte{'F', 'L', 'Y', 'M', 'T', 'R', 'C', 1}

// HeaderSize is the length of the file header: the 7-byte magic plus a
// format version byte.
const HeaderSize = 8

// RecordSize is the fixed width of one packet record.
const RecordSize = 4 + 4 + 2 + 2 + 1 + 3 /*pad*/ + 4 + 8 + 4 + 4

// ErrBadMagic is returned when a trace stream does not start with the
// expected header.
var ErrBadMagic = errors.New("trace: bad magic (not a FlyMon trace)")

// ValidateHeader checks a trace file header. b must hold at least
// HeaderSize bytes; shorter input and wrong magic both return ErrBadMagic.
func ValidateHeader(b []byte) error {
	if len(b) < HeaderSize || [HeaderSize]byte(b[:HeaderSize]) != magic {
		return ErrBadMagic
	}
	return nil
}

// Header returns the trace file header bytes.
func Header() [HeaderSize]byte { return magic }

// TruncatedError reports a stream that ended in the middle of record
// Record (0-based). It unwraps to io.ErrUnexpectedEOF, so
// errors.Is(err, io.ErrUnexpectedEOF) holds for every truncation, and both
// the streaming Reader and the mmap decoder (internal/mmtrace) return it
// with the same record index for the same byte stream.
type TruncatedError struct {
	Record int
}

// Error implements error.
func (e *TruncatedError) Error() string {
	return fmt.Sprintf("trace: record %d truncated: %v", e.Record, io.ErrUnexpectedEOF)
}

// Unwrap makes the error match io.ErrUnexpectedEOF under errors.Is.
func (e *TruncatedError) Unwrap() error { return io.ErrUnexpectedEOF }

// EncodeRecord writes p as one record into b, which must hold at least
// RecordSize bytes.
func EncodeRecord(b []byte, p *packet.Packet) {
	binary.LittleEndian.PutUint32(b[0:], p.SrcIP)
	binary.LittleEndian.PutUint32(b[4:], p.DstIP)
	binary.LittleEndian.PutUint16(b[8:], p.SrcPort)
	binary.LittleEndian.PutUint16(b[10:], p.DstPort)
	b[12] = p.Proto
	b[13], b[14], b[15] = 0, 0, 0
	binary.LittleEndian.PutUint32(b[16:], p.Size)
	binary.LittleEndian.PutUint64(b[20:], p.TimestampNs)
	binary.LittleEndian.PutUint32(b[28:], p.QueueLength)
	binary.LittleEndian.PutUint32(b[32:], p.QueueDelayNs)
}

// DecodeRecord reads one record from b (at least RecordSize bytes) into p.
// It is the single decode used by the Reader, the mmap frame views, and the
// batch decoders, so every ingestion path is bit-identical by construction.
func DecodeRecord(b []byte, p *packet.Packet) {
	_ = b[RecordSize-1] // one bounds check for the whole record
	p.SrcIP = binary.LittleEndian.Uint32(b[0:4])
	p.DstIP = binary.LittleEndian.Uint32(b[4:8])
	p.SrcPort = binary.LittleEndian.Uint16(b[8:10])
	p.DstPort = binary.LittleEndian.Uint16(b[10:12])
	p.Proto = b[12]
	p.Size = binary.LittleEndian.Uint32(b[16:20])
	p.TimestampNs = binary.LittleEndian.Uint64(b[20:28])
	p.QueueLength = binary.LittleEndian.Uint32(b[28:32])
	p.QueueDelayNs = binary.LittleEndian.Uint32(b[32:36])
}

// Writer streams packets into the binary trace format.
type Writer struct {
	w   *bufio.Writer
	buf [RecordSize]byte
	n   int
}

// NewWriter writes the header and returns a Writer. Call Flush when done.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// WritePacket appends one packet record.
func (w *Writer) WritePacket(p *packet.Packet) error {
	EncodeRecord(w.buf[:], p)
	if _, err := w.w.Write(w.buf[:]); err != nil {
		return fmt.Errorf("trace: writing record %d: %w", w.n, err)
	}
	w.n++
	return nil
}

// WriteTrace appends every packet of t.
func (w *Writer) WriteTrace(t *Trace) error {
	for i := range t.Packets {
		if err := w.WritePacket(&t.Packets[i]); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int { return w.n }

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams packets from the binary trace format.
type Reader struct {
	r     *bufio.Reader
	buf   [RecordSize]byte
	batch []byte // ReadBatch scratch, grown to the largest batch requested
	n     int    // records decoded so far (the index of the next record)
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if hdr != magic {
		return nil, ErrBadMagic
	}
	return &Reader{r: br}, nil
}

// ReadPacket reads the next record into p. It returns io.EOF at a clean end
// of stream and a *TruncatedError (matching io.ErrUnexpectedEOF) when the
// stream ends mid-record.
func (r *Reader) ReadPacket(p *packet.Packet) error {
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return &TruncatedError{Record: r.n}
		}
		return fmt.Errorf("trace: reading record %d: %w", r.n, err)
	}
	DecodeRecord(r.buf[:], p)
	r.n++
	return nil
}

// ReadBatch fills dst with the next records and returns how many it
// decoded. It amortizes per-record call overhead by reading
// len(dst)×RecordSize bytes in one ReadFull (large batches bypass the
// bufio copy entirely).
//
// The contract mirrors io.Reader batch idioms: n > 0 with a nil error means
// more may follow; a short batch at a clean end of stream returns the
// records with a nil error and the next call returns (0, io.EOF); a stream
// ending mid-record returns the complete records together with a
// *TruncatedError carrying the offending record's index.
func (r *Reader) ReadBatch(dst []packet.Packet) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	want := len(dst) * RecordSize
	if cap(r.batch) < want {
		r.batch = make([]byte, want)
	}
	buf := r.batch[:want]
	nb, err := io.ReadFull(r.r, buf)
	n := nb / RecordSize
	for i := 0; i < n; i++ {
		DecodeRecord(buf[i*RecordSize:], &dst[i])
	}
	r.n += n
	switch err {
	case nil:
		return n, nil
	case io.EOF:
		// ReadFull read zero bytes: clean end of stream.
		return 0, io.EOF
	case io.ErrUnexpectedEOF:
		if nb%RecordSize != 0 {
			return n, &TruncatedError{Record: r.n}
		}
		if n == 0 {
			return 0, io.EOF
		}
		// Short but record-aligned: report the records now, EOF on the
		// next call.
		return n, nil
	default:
		return n, fmt.Errorf("trace: reading record %d: %w", r.n, err)
	}
}
