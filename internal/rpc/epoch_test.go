package rpc

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"flymon/internal/controlplane"
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

// wireRows reads a task's registers over the wire, the frame into dst.
func wireRows(t *testing.T, c *Client, id int, dst [][]uint32) [][]uint32 {
	t.Helper()
	r := RegistersResult{rows: dst}
	if err := c.call(MethodReadRegisters, TaskIDParams{ID: id}, &r); err != nil {
		t.Fatal(err)
	}
	return r.FrameRows(nil)
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
	again := wireRows(t, c, task.ID, rows)
	if &again[0][0] != keep0 || !reflect.DeepEqual(again, plain) {
		t.Fatal("readout into a geometry-matched buffer must reuse it and decode the same rows")
	}
}

func TestFrameRoundTripReusesBuffers(t *testing.T) {
	rows := [][]uint32{{1, 2, 3}, {4, 5}, {}}
	lens := []int{3, 2, 0}
	frame := encodeFrame(t, rows)
	if len(frame) != 4*5 || frameGeometry(lens, len(frame)) != nil {
		t.Fatalf("frame %d bytes for lens %v", len(frame), lens)
	}
	dst := [][]uint32{make([]uint32, 3), make([]uint32, 2), nil}
	keep0 := &dst[0][0]
	out, err := readRows(bytes.NewReader(frame), lens, dst)
	if err != nil || &out[0][0] != keep0 || !sameRows(out, rows) {
		t.Fatalf("matching-geometry read = %v, %v: must fill the destination in place", out, err)
	}
	// Mismatched geometry falls back to allocation, never panics.
	out, err = readRows(bytes.NewReader(frame), lens, [][]uint32{make([]uint32, 1)})
	if err != nil || !sameRows(out, rows) {
		t.Fatalf("fallback read = %v, %v", out, err)
	}
	// A short frame is refused, not truncated: its lengths announce more
	// bytes than it holds, and a reader that runs dry is an error too.
	if err := frameGeometry(lens, 8); err == nil {
		t.Fatal("row_lens announcing 20 bytes must not admit an 8-byte frame")
	}
	if _, err := readRows(bytes.NewReader(frame[:8]), lens, nil); err == nil {
		t.Fatal("a frame that ends early must fail the read")
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

// TestEpochRotateAnswersTargetSnapshot: a rotation answers with the target
// epoch's snapshot, the rows read_epoch serves for it. A re-sent rotation
// answers the same rows; a catch-up from epoch 1 to 4 answers epoch 4's
// and leaves epochs 1–3 readable; a retry whose target retention already
// evicted answers no rows, under the daemon's latest epoch.
func TestEpochRotateAnswersTargetSnapshot(t *testing.T) {
	s, c := startServer(t)
	if _, err := c.EpochDeploy(freqSpec("ep")); err != nil {
		t.Fatal(err)
	}
	total := func(rows [][]uint32) (n uint64) {
		for _, row := range rows {
			for _, v := range row {
				n += uint64(v)
			}
		}
		return n
	}
	// same holds a rotation's answer to the snapshot read_epoch serves.
	same := func(what string, got EpochRegistersResult, epoch int) {
		t.Helper()
		want, err := c.ReadEpoch("ep", epoch)
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != epoch || got.FrozenID != want.FrozenID || got.Fingerprint != want.Fingerprint ||
			!sameRows(got.FrameRows(nil), want.FrameRows(nil)) {
			t.Fatalf("%s answered epoch %d (frozen %d, fingerprint %#x); read_epoch serves epoch %d (frozen %d, fingerprint %#x)",
				what, got.Epoch, got.FrozenID, got.Fingerprint, epoch, want.FrozenID, want.Fingerprint)
		}
	}
	feed(t, s, 5)
	r1, err := c.EpochRotate("ep", 1)
	if err != nil {
		t.Fatal(err)
	}
	same("rotation to 1", r1, 1)
	if total(r1.FrameRows(nil)) == 0 {
		t.Fatal("epoch 1's answer is empty despite traffic")
	}
	again, err := c.EpochRotate("ep", 1)
	if err != nil {
		t.Fatal(err)
	}
	same("re-sent rotation to 1", again, 1)

	// Epoch 2 holds the second feed; 3 and 4 are empty.
	feed(t, s, 6)
	r4, err := c.EpochRotate("ep", 4)
	if err != nil {
		t.Fatal(err)
	}
	same("catch-up rotation to 4", r4, 4)
	for e := 1; e <= 3; e++ {
		snap, err := c.ReadEpoch("ep", e)
		if err != nil {
			t.Fatalf("epoch %d unreadable after the catch-up: %v", e, err)
		}
		if busy := total(snap.FrameRows(nil)) != 0; busy != (e != 3) {
			t.Fatalf("epoch %d holds %d counts", e, total(snap.FrameRows(nil)))
		}
	}

	// Epochs 5 and 6 evict 1 and 2: a late retry to 1 answers no rows.
	if _, err := c.EpochRotate("ep", 6); err != nil {
		t.Fatal(err)
	}
	stale, err := c.EpochRotate("ep", 1)
	if err != nil || stale.Epoch != 6 || len(stale.FrameRows(nil)) != 0 {
		t.Fatalf("retry to an evicted epoch: epoch %d, %d rows, err %v; want epoch 6, no rows",
			stale.Epoch, len(stale.FrameRows(nil)), err)
	}
}

// TestKeyIndicesMatchDaemonEstimate: the indices key_indices answers read
// the daemon's own estimate out of the task's rows, on every count-min
// task — MRAC, a one-row CMS, included.
func TestKeyIndicesMatchDaemonEstimate(t *testing.T) {
	mrac := freqSpec("mrac")
	mrac.Algorithm, mrac.D = controlplane.AlgMRAC, 0
	for _, spec := range []controlplane.TaskSpec{freqSpec("cms"), mrac} {
		t.Run(spec.Name, func(t *testing.T) {
			s, c := startServer(t)
			task, err := c.AddTask(spec)
			if err != nil {
				t.Fatal(err)
			}
			tr := feed(t, s, 4)
			key := packet.KeyFiveTuple.Extract(&tr.Packets[0])
			idx, err := c.KeyIndices(task.ID, key)
			if err != nil {
				t.Fatal(err)
			}
			rows := wireRows(t, c, task.ID, nil)
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
			if min == 0 || float64(min) != est {
				t.Fatalf("key-indices estimate %d != daemon estimate %v", min, est)
			}
		})
	}
}

func TestKeyIndicesServeRetainedEpochs(t *testing.T) {
	// The rotator reclaims a frozen copy one rotation after freezing it,
	// but read_epoch serves EpochRetain epochs: key_indices must answer a
	// retained epoch's frozen ID for as long as its snapshot is served,
	// with the indices its copy had while it was current.
	s, c := startServer(t)
	if _, err := c.EpochDeploy(freqSpec("ep")); err != nil {
		t.Fatal(err)
	}
	const latest = EpochRetain
	key := packet.KeyFiveTuple.Extract(&feed(t, s, 1).Packets[0])
	want := make(map[int][]uint32)
	for e := 1; e <= latest; e++ {
		if e > 1 {
			feed(t, s, int64(e))
		}
		if _, err := c.EpochRotate("ep", e); err != nil {
			t.Fatal(err)
		}
		snap, err := c.ReadEpoch("ep", e)
		if err != nil {
			t.Fatal(err)
		}
		if want[e], err = c.KeyIndices(snap.FrozenID, key); err != nil {
			t.Fatalf("epoch %d while current: %v", e, err)
		}
	}
	for _, e := range []int{latest - 1, latest - 3} {
		snap, err := c.ReadEpoch("ep", e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ctrl.TaskHandle(snap.FrozenID); err == nil {
			t.Fatalf("setup: epoch %d's frozen copy %d was not reclaimed", e, snap.FrozenID)
		}
		idx, err := c.KeyIndices(snap.FrozenID, key)
		if err != nil {
			t.Fatalf("key_indices for retained epoch %d (frozen copy %d): %v", e, snap.FrozenID, err)
		}
		if !reflect.DeepEqual(idx, want[e]) {
			t.Fatalf("epoch %d indices %v, %v while current", e, idx, want[e])
		}
	}
}
