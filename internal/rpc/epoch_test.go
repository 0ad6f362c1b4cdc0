package rpc

import (
	"errors"
	"reflect"
	"testing"

	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

// feed pushes a deterministic workload through the server's controller.
func feed(t *testing.T, s *Server, seed int64) *trace.Trace {
	t.Helper()
	tr := trace.Generate(trace.Config{Flows: 64, Packets: 2000, ZipfS: 1.1, Seed: seed})
	s.ctrl.ReplayTrace(mmtrace.FromPackets(tr.Packets))
	return tr
}

// readRows reads a task's registers over the wire and decodes them into dst.
func readRows(t *testing.T, c *Client, id int, dst [][]uint32) [][]uint32 {
	t.Helper()
	r, err := c.ReadRegisters(id)
	if err != nil {
		t.Fatal(err)
	}
	return r.FrameRows(dst)
}

// errCode returns the daemon's classification of err ("" for none).
func errCode(err error) string {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return ""
}

func TestPackedRegistersMatchPlain(t *testing.T) {
	// The oracle is the daemon's in-process readout: no wire at all.
	s, c := startServer(t)
	task, err := c.AddTask(freqSpec("packed"))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, 1)
	plain, err := s.ctrl.ReadRegisters(task.ID)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := c.ReadRegisters(task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if local, _ := s.ctrl.Task(task.ID); reg.Fingerprint == 0 || reg.Fingerprint != local.Fingerprint || reg.Fingerprint != task.Fingerprint {
		t.Fatalf("fingerprints: readout %#x, add_task %#x, controller %#x", reg.Fingerprint, task.Fingerprint, local.Fingerprint)
	}
	rows := reg.FrameRows(nil)
	if len(rows) == 0 || !reflect.DeepEqual(rows, plain) {
		t.Fatalf("framed readout (%d rows) differs from the controller's (%d rows)", len(rows), len(plain))
	}
	// A recycled buffer of the right geometry is filled in place.
	keep0 := &rows[0][0]
	again := readRows(t, c, task.ID, rows)
	if &again[0][0] != keep0 || !reflect.DeepEqual(again, plain) {
		t.Fatal("readout into a geometry-matched buffer must reuse it and decode the same rows")
	}
}

func TestFrameRoundTripReusesBuffers(t *testing.T) {
	rows := [][]uint32{{1, 2, 3}, {4, 5}, {}}
	frame, lens := packFrame(rows)
	if len(frame) != 4*5 || len(lens) != 3 || lens[0] != 3 || lens[2] != 0 {
		t.Fatalf("frame %d bytes lens %v", len(frame), lens)
	}
	dst := [][]uint32{make([]uint32, 3), make([]uint32, 2), nil}
	keep0 := &dst[0][0]
	out := unpackFrame(frame, lens, dst)
	if &out[0][0] != keep0 {
		t.Fatal("matching-geometry unpack must reuse the destination buffer")
	}
	for i := range rows {
		for j := range rows[i] {
			if out[i][j] != rows[i][j] {
				t.Fatalf("row %d index %d: %d != %d", i, j, out[i][j], rows[i][j])
			}
		}
	}
	// Mismatched geometry falls back to allocation, never panics; a short
	// frame truncates instead of reading out of range.
	out = unpackFrame(frame, lens, [][]uint32{make([]uint32, 1)})
	if len(out) != 3 || len(out[0]) != 3 || out[1][1] != 5 {
		t.Fatalf("fallback shape = %v", out)
	}
	out = unpackFrame(frame[:8], lens, nil)
	if len(out) != 3 || len(out[0]) != 2 || len(out[1]) != 0 {
		t.Fatalf("short-frame shape = %v", out)
	}
}

func TestEpochLifecycleOverRPC(t *testing.T) {
	s, c := startServer(t)
	et, err := c.EpochDeploy(freqSpec("ep"))
	if err != nil {
		t.Fatal(err)
	}
	if et.Epoch != 0 {
		t.Fatalf("fresh epoch task at epoch %d", et.Epoch)
	}

	// Nothing completed yet: read_epoch must answer with the classified
	// straggler signal, not a generic error.
	if _, err := c.ReadEpoch("ep", 0); errCode(err) != CodeEpochUnavailable {
		t.Fatalf("pre-rotation read = %v, want epoch-unavailable", err)
	}
	// A name or an ID that is not there is classified too: it is what an
	// idempotent remove reads as "already gone".
	if err := c.EpochRemove("nope"); errCode(err) != CodeNoEpochTask {
		t.Fatalf("remove of an unknown epoch task = %v, want %s", err, CodeNoEpochTask)
	}
	if err := c.RemoveTask(999); errCode(err) != CodeNoTask {
		t.Fatalf("remove of an unknown task = %v, want %s", err, CodeNoTask)
	}

	feed(t, s, 2)
	r1, err := c.EpochRotate("ep", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Epoch != 1 {
		t.Fatalf("epoch after first rotate = %d", r1.Epoch)
	}
	// Idempotency: re-sending the same target must not advance again.
	r1b, err := c.EpochRotate("ep", 1)
	if err != nil || r1b.Epoch != 1 {
		t.Fatalf("re-sent rotate: epoch %d err %v", r1b.Epoch, err)
	}

	snap1, err := c.ReadEpoch("ep", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows1 := snap1.FrameRows(nil)
	if snap1.Epoch != 1 || len(rows1) == 0 {
		t.Fatalf("snapshot = epoch %d rows %d", snap1.Epoch, len(rows1))
	}
	// The snapshot carries the layout of the copy it froze.
	frozen, err := s.ctrl.Task(snap1.FrozenID)
	if err != nil {
		t.Fatal(err)
	}
	if snap1.Fingerprint == 0 || snap1.Fingerprint != frozen.Fingerprint {
		t.Fatalf("snapshot fingerprint %#x, frozen copy %#x", snap1.Fingerprint, frozen.Fingerprint)
	}
	sum := uint64(0)
	for _, row := range rows1 {
		for _, v := range row {
			sum += uint64(v)
		}
	}
	if sum == 0 {
		t.Fatal("epoch-1 snapshot is empty despite traffic")
	}

	// Traffic after the rotation lands in epoch 2; the epoch-1 snapshot
	// must stay frozen (coherence at the boundary).
	feed(t, s, 3)
	again, err := c.ReadEpoch("ep", 1)
	if err != nil {
		t.Fatal(err)
	}
	rowsAgain := again.FrameRows(nil)
	for i := range rows1 {
		for j := range rows1[i] {
			if rowsAgain[i][j] != rows1[i][j] {
				t.Fatalf("epoch-1 snapshot changed at row %d index %d", i, j)
			}
		}
	}

	// A daemon that missed rotations catches up in one idempotent call,
	// snapshotting every intermediate epoch.
	r4, err := c.EpochRotate("ep", 4)
	if err != nil || r4.Epoch != 4 {
		t.Fatalf("catch-up rotate: epoch %d err %v", r4.Epoch, err)
	}
	for e := 1; e <= 4; e++ {
		if _, err := c.ReadEpoch("ep", e); err != nil {
			t.Fatalf("epoch %d unreadable after catch-up: %v", e, err)
		}
	}

	// Epoch 5 rotated: retention (EpochRetain=4) evicts epoch 1.
	if _, err := c.EpochRotate("ep", 5); err != nil {
		t.Fatal(err)
	}
	var gone *Error
	if _, err := c.ReadEpoch("ep", 1); !errors.As(err, &gone) || gone.Code != CodeEpochUnavailable || gone.Have != 5 {
		t.Fatalf("evicted epoch read = %v, want epoch-unavailable with have=5", err)
	}
	if snap, err := c.ReadEpoch("ep", 0); err != nil || snap.Epoch != 5 {
		t.Fatalf("latest-epoch read = %+v err %v", snap, err)
	}

	if err := c.EpochRemove("ep"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadEpoch("ep", 0); err == nil {
		t.Fatal("read after remove must fail")
	}
	if len(s.ctrl.Tasks()) != 0 {
		t.Fatalf("epoch remove leaked %d tasks", len(s.ctrl.Tasks()))
	}
}

func TestKeyIndicesMatchDaemonEstimate(t *testing.T) {
	s, c := startServer(t)
	task, err := c.AddTask(freqSpec("ki"))
	if err != nil {
		t.Fatal(err)
	}
	tr := feed(t, s, 4)
	key := packet.KeyFiveTuple.Extract(&tr.Packets[0])
	idx, err := c.KeyIndices(task.ID, key)
	if err != nil {
		t.Fatal(err)
	}
	rows := readRows(t, c, task.ID, nil)
	if len(idx) != len(rows) {
		t.Fatalf("%d indices for %d rows", len(idx), len(rows))
	}
	min := ^uint32(0)
	for i, ix := range idx {
		if int(ix) >= len(rows[i]) {
			t.Fatalf("row %d index %d out of range (%d buckets)", i, ix, len(rows[i]))
		}
		if v := rows[i][ix]; v < min {
			min = v
		}
	}
	est, err := c.Estimate(task.ID, key)
	if err != nil {
		t.Fatal(err)
	}
	if float64(min) != est {
		t.Fatalf("key-indices estimate %d != daemon estimate %v", min, est)
	}
}
