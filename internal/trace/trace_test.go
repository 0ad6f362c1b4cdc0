package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"flymon/internal/packet"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Flows: 100, Packets: 5000, Seed: 9})
	b := Generate(Config{Flows: 100, Packets: 5000, Seed: 9})
	if len(a.Packets) != len(b.Packets) {
		t.Fatal("same seed produced different lengths")
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("same seed diverged at packet %d", i)
		}
	}
	c := Generate(Config{Flows: 100, Packets: 5000, Seed: 10})
	same := 0
	for i := range a.Packets {
		if a.Packets[i] == c.Packets[i] {
			same++
		}
	}
	if same == len(a.Packets) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGeneratePopulation(t *testing.T) {
	tr := Generate(Config{Flows: 500, Packets: 50_000, Seed: 1})
	if tr.Len() != 50_000 {
		t.Fatalf("packet count = %d", tr.Len())
	}
	flows := map[packet.CanonicalKey]int{}
	for i := range tr.Packets {
		flows[packet.KeyFiveTuple.Extract(&tr.Packets[i])]++
	}
	if len(flows) < 400 || len(flows) > 500 {
		t.Fatalf("distinct flows = %d, want close to 500", len(flows))
	}
	// Zipf skew: the top flow should dominate the median flow.
	max, total := 0, 0
	for _, c := range flows {
		if c > max {
			max = c
		}
		total += c
	}
	if max < total/20 {
		t.Fatalf("top flow carries %d of %d packets; distribution not heavy-tailed", max, total)
	}
}

func TestGenerateTimestampsSortedAndBounded(t *testing.T) {
	cfg := Config{Flows: 50, Packets: 5000, Seed: 2, DurationNs: 1e9}
	tr := Generate(cfg)
	var prev uint64
	for i := range tr.Packets {
		ts := tr.Packets[i].TimestampNs
		if ts < prev {
			t.Fatalf("timestamps not sorted at %d", i)
		}
		if ts >= cfg.DurationNs {
			t.Fatalf("timestamp %d beyond duration", ts)
		}
		prev = ts
	}
}

func TestGenerateFlowLifetimes(t *testing.T) {
	// Most flows must be short-lived (span < half the trace): stale-state
	// effects depend on it.
	tr := Generate(Config{Flows: 400, Packets: 40_000, Seed: 3})
	first := map[packet.CanonicalKey]uint64{}
	last := map[packet.CanonicalKey]uint64{}
	for i := range tr.Packets {
		k := packet.KeyFiveTuple.Extract(&tr.Packets[i])
		ts := tr.Packets[i].TimestampNs
		if _, ok := first[k]; !ok {
			first[k] = ts
		}
		last[k] = ts
	}
	var dur uint64 = 15e9
	short := 0
	for k := range first {
		if last[k]-first[k] < dur/2 {
			short++
		}
	}
	if float64(short) < 0.5*float64(len(first)) {
		t.Fatalf("only %d/%d flows are short-lived", short, len(first))
	}
}

func TestInjectDDoS(t *testing.T) {
	tr := Generate(Config{Flows: 100, Packets: 5000, Seed: 4})
	victim := packet.IPv4(1, 2, 3, 4)
	tr.InjectDDoS(victim, 300, 2, 5)
	srcs := map[uint32]bool{}
	for i := range tr.Packets {
		if tr.Packets[i].DstIP == victim {
			srcs[tr.Packets[i].SrcIP] = true
		}
	}
	if len(srcs) != 300 {
		t.Fatalf("victim sees %d distinct sources, want 300", len(srcs))
	}
	// Trace must stay time-sorted after merging.
	for i := 1; i < len(tr.Packets); i++ {
		if tr.Packets[i].TimestampNs < tr.Packets[i-1].TimestampNs {
			t.Fatal("merge broke timestamp order")
		}
	}
}

func TestInjectPortScan(t *testing.T) {
	tr := Generate(Config{Flows: 100, Packets: 5000, Seed: 6})
	src := packet.IPv4(9, 9, 9, 9)
	tr.InjectPortScan(src, packet.IPv4(10, 10, 10, 10), 250, 7)
	ports := map[uint16]bool{}
	for i := range tr.Packets {
		if tr.Packets[i].SrcIP == src {
			ports[tr.Packets[i].DstPort] = true
		}
	}
	if len(ports) != 250 {
		t.Fatalf("scanner probed %d distinct ports, want 250", len(ports))
	}
}

func TestInjectSpikeWindow(t *testing.T) {
	tr := Generate(Config{Flows: 100, Packets: 10_000, Seed: 8})
	before := tr.Len()
	tr.InjectSpike(500, 3, 0.4, 0.6, 9)
	added := tr.Len() - before
	if added != 1500 {
		t.Fatalf("spike added %d packets, want 1500", added)
	}
	// Spike packets must sit inside the requested window: re-generate the
	// base trace, diff flow keys, and bound the new flows' timestamps.
	base := Generate(Config{Flows: 100, Packets: 10_000, Seed: 8})
	baseFlows := map[packet.CanonicalKey]bool{}
	for i := range base.Packets {
		baseFlows[packet.KeyFiveTuple.Extract(&base.Packets[i])] = true
	}
	var dur uint64 = 15e9
	lo, hi := uint64(0.39*float64(dur)), uint64(0.61*float64(dur))
	for i := range tr.Packets {
		k := packet.KeyFiveTuple.Extract(&tr.Packets[i])
		if baseFlows[k] {
			continue
		}
		ts := tr.Packets[i].TimestampNs
		if ts < lo || ts > hi {
			t.Fatalf("spike packet at %d ns outside window [%d,%d]", ts, lo, hi)
		}
	}
}

func TestEpochsPartitionTrace(t *testing.T) {
	tr := Generate(Config{Flows: 100, Packets: 10_000, Seed: 10})
	epochs := tr.Epochs(20)
	if len(epochs) != 20 {
		t.Fatalf("epoch count = %d", len(epochs))
	}
	total := 0
	for _, ep := range epochs {
		total += ep.Len()
	}
	if total != tr.Len() {
		t.Fatalf("epochs hold %d packets, trace has %d", total, tr.Len())
	}
	// Epoch boundaries respect time order.
	for e := 1; e < len(epochs); e++ {
		if epochs[e-1].Len() == 0 || epochs[e].Len() == 0 {
			continue
		}
		lastPrev := epochs[e-1].Packets[epochs[e-1].Len()-1].TimestampNs
		firstCur := epochs[e].Packets[0].TimestampNs
		if lastPrev > firstCur {
			t.Fatalf("epoch %d starts before epoch %d ends", e, e-1)
		}
	}
}

func TestEpochsEdgeCases(t *testing.T) {
	if got := (&Trace{}).Epochs(0); got != nil {
		t.Error("zero epochs must return nil")
	}
	empty := (&Trace{}).Epochs(3)
	if len(empty) != 3 {
		t.Fatal("empty trace must still split into n empty epochs")
	}
	for _, ep := range empty {
		if ep.Len() != 0 {
			t.Fatal("empty trace epochs must be empty")
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	tr := Generate(Config{Flows: 50, Packets: 2000, Seed: 11})
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTrace(tr); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != tr.Len() {
		t.Fatalf("writer count = %d", w.Count())
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// One batch with room to spare reads the whole stream.
	got := make([]packet.Packet, tr.Len()+1)
	n, err := r.ReadBatch(got)
	if err != nil {
		t.Fatal(err)
	}
	if n != tr.Len() {
		t.Fatalf("read %d packets, wrote %d", n, tr.Len())
	}
	for i := range tr.Packets {
		if got[i] != tr.Packets[i] {
			t.Fatalf("packet %d corrupted in round trip", i)
		}
	}
}

func TestFormatRoundTripProperty(t *testing.T) {
	f := func(src, dst, size uint32, sp, dp uint16, proto uint8, ts uint64, ql, qd uint32) bool {
		p := packet.Packet{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp,
			Proto: proto, Size: size, TimestampNs: ts, QueueLength: ql, QueueDelayNs: qd}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		if err := w.WritePacket(&p); err != nil || w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		var q packet.Packet
		if err := r.ReadPacket(&q); err != nil {
			return false
		}
		return q == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACEFILE..."))); err != ErrBadMagic {
		t.Fatalf("bad magic error = %v, want ErrBadMagic", err)
	}
}

func TestFormatTruncatedRecord(t *testing.T) {
	tr := Generate(Config{Flows: 5, Packets: 10, Seed: 12})
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.WriteTrace(tr)
	_ = w.Flush()
	trunc := buf.Bytes()[:buf.Len()-7] // cut mid-record: record 9 is damaged
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.ReadBatch(make([]packet.Packet, tr.Len()))
	if err == nil || err == io.EOF {
		t.Fatalf("truncated stream must fail with a non-EOF error, got %v", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncation error %v does not match io.ErrUnexpectedEOF", err)
	}
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("truncation error %v is not a *TruncatedError", err)
	}
	if te.Record != 9 {
		t.Fatalf("truncated record index = %d, want 9", te.Record)
	}

	// The per-record path must agree with the batch path.
	r2, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	var p packet.Packet
	var perr error
	for {
		if perr = r2.ReadPacket(&p); perr != nil {
			break
		}
	}
	var te2 *TruncatedError
	if !errors.As(perr, &te2) || te2.Record != te.Record {
		t.Fatalf("ReadPacket truncation = %v, ReadBatch truncation = %v; indexes must agree", perr, err)
	}
}

func TestReadBatch(t *testing.T) {
	tr := Generate(Config{Flows: 20, Packets: 1000, Seed: 13})
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.WriteTrace(tr)
	_ = w.Flush()
	encoded := buf.Bytes()

	// Batch size that does not divide the trace: the tail batch is short
	// with a nil error, and the following call returns (0, io.EOF).
	r, err := NewReader(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]packet.Packet, 96)
	var got []packet.Packet
	for {
		n, err := r.ReadBatch(dst)
		if n > 0 {
			got = append(got, dst[:n]...)
		}
		if err == io.EOF {
			if n != 0 {
				t.Fatalf("EOF with %d records; EOF must be bare", n)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != tr.Len() {
		t.Fatalf("ReadBatch streamed %d packets, want %d", len(got), tr.Len())
	}
	for i := range got {
		if got[i] != tr.Packets[i] {
			t.Fatalf("packet %d differs from the written trace", i)
		}
	}

	// A batch larger than the remaining stream returns everything at once.
	r2, _ := NewReader(bytes.NewReader(encoded))
	big := make([]packet.Packet, 2*tr.Len())
	n, err := r2.ReadBatch(big)
	if n != tr.Len() || err != nil {
		t.Fatalf("oversized batch = (%d, %v), want (%d, nil)", n, err, tr.Len())
	}
	if n, err := r2.ReadBatch(big); n != 0 || err != io.EOF {
		t.Fatalf("drained reader = (%d, %v), want (0, io.EOF)", n, err)
	}

	// Empty destination is a no-op.
	r3, _ := NewReader(bytes.NewReader(encoded))
	if n, err := r3.ReadBatch(nil); n != 0 || err != nil {
		t.Fatalf("nil batch = (%d, %v), want (0, nil)", n, err)
	}
}

func TestReadBatchTruncatedDeliversPrefix(t *testing.T) {
	tr := Generate(Config{Flows: 5, Packets: 7, Seed: 14})
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.WriteTrace(tr)
	_ = w.Flush()
	trunc := buf.Bytes()[:buf.Len()-5]
	r, _ := NewReader(bytes.NewReader(trunc))
	dst := make([]packet.Packet, 16)
	n, err := r.ReadBatch(dst)
	if n != 6 {
		t.Fatalf("truncated batch delivered %d records, want the 6 intact ones", n)
	}
	var te *TruncatedError
	if !errors.As(err, &te) || te.Record != 6 {
		t.Fatalf("truncation error = %v, want TruncatedError{Record: 6}", err)
	}
	for i := 0; i < n; i++ {
		if dst[i] != tr.Packets[i] {
			t.Fatalf("intact prefix record %d corrupted", i)
		}
	}
}

func TestSummarize(t *testing.T) {
	tr := Generate(Config{Flows: 500, Packets: 20_000, Seed: 20})
	s := Summarize(tr)
	if s.Packets != 20_000 {
		t.Fatalf("packets = %d", s.Packets)
	}
	if s.Flows < 400 || s.Flows > 500 {
		t.Fatalf("flows = %d", s.Flows)
	}
	if s.SrcIPs > s.Flows || s.DstIPs > s.Flows {
		t.Fatal("IP counts cannot exceed flow count for distinct random flows")
	}
	if s.TopFlowPkts == 0 || s.Top10SharePct <= 0 || s.Top10SharePct > 100 {
		t.Fatalf("heavy-tail stats implausible: top=%d share=%.1f", s.TopFlowPkts, s.Top10SharePct)
	}
	// Threshold buckets are monotone.
	if s.HeavyFlows[64] < s.HeavyFlows[256] || s.HeavyFlows[256] < s.HeavyFlows[1024] {
		t.Fatalf("heavy-flow thresholds not monotone: %v", s.HeavyFlows)
	}
	if s.Bytes == 0 || s.DurationNs == 0 {
		t.Fatal("bytes/duration missing")
	}
	// Empty trace.
	if e := Summarize(&Trace{}); e.Packets != 0 || e.Flows != 0 {
		t.Fatal("empty summary wrong")
	}
	// Render is total.
	var buf bytes.Buffer
	s.Render(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("flows (5-tuple)")) {
		t.Fatal("render missing fields")
	}
}
