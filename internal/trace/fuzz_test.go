package trace

import (
	"bytes"
	"io"
	"testing"

	"flymon/internal/packet"
)

// FuzzReader hardens the binary trace parser against arbitrary input: it
// must return errors, never panic or loop, and any stream it accepts must
// round-trip.
func FuzzReader(f *testing.F) {
	// Seed with a valid two-packet trace and a few corruptions.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	tr := Generate(Config{Flows: 2, Packets: 2, Seed: 1})
	_ = w.WriteTrace(tr)
	_ = w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("FLYMTRC\x01 garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // rejected header: fine
		}
		// One batch with room to spare reads the whole stream.
		ps := make([]packet.Packet, len(data)/RecordSize+1)
		n, err := r.ReadBatch(ps)
		if err != nil && err != io.EOF {
			return // rejected body: fine
		}
		got := &Trace{Packets: ps[:n]}
		// Accepted: re-encoding must reproduce the record bytes.
		var out bytes.Buffer
		w, err := NewWriter(&out)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteTrace(got); err != nil || w.Flush() != nil {
			t.Fatal("re-encoding an accepted trace failed")
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("accepted trace does not round-trip")
		}
	})
}
