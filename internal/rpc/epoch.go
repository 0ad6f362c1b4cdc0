package rpc

import (
	"fmt"

	"flymon/internal/controlplane"
	"flymon/internal/epoch"
	"flymon/internal/packet"
)

// EpochRetain is how many completed epochs' snapshots a daemon
// keeps per epoch task. The rotator itself only holds the last frozen
// copy's registers; snapshots are what let a slow query plane read epoch
// E-2 after the fleet has moved on. Four epochs comfortably covers a
// query racing one rotation plus a straggler catching up. Exported
// because the fleet controller keeps its merged epochs for exactly the
// same window (netwide's epoch artifacts): one number, not two.
const EpochRetain = 4

// epochTask is the daemon-side state of one epoch task: the rotator that
// owns the double-buffered deployments, plus each recent completed epoch's
// snapshot. Snapshots are immutable once stored, so epoch_rotate and
// read_epoch hand the stored rows straight to the codec (concurrent reads
// share them): serving an epoch costs zero encoding work.
type epochTask struct {
	rot   *epoch.Rotator
	snaps map[int]epochSnap // by completed epoch
}

// epochSnap is one completed epoch: its readout (ReadRegisters' one copy of
// the frozen registers, also its wire frame; never recycled, as a write in
// flight may hold it) and the frozen copy's handle. The rotator reclaims
// the copy one rotation later; key_indices reads only the handle's
// placement, so the handle answers for the epoch as long as it is served.
type epochSnap struct {
	res    EpochRegistersResult
	handle any
}

// epochUnavailable builds the classified "cannot serve that epoch (yet)"
// answer, which is how the fleet's straggler policies tell "behind, poll
// again" from "broken, fail".
func epochUnavailable(name string, want, have int) error {
	return &Error{
		Code: CodeEpochUnavailable, Have: have,
		Msg: fmt.Sprintf("rpc: task %q epoch %d not readable here (latest completed epoch %d)", name, want, have),
	}
}

func (s *Server) epochTaskLocked(name string) (*epochTask, error) {
	et := s.epochs[name]
	if et == nil {
		return nil, &Error{Code: CodeNoEpochTask, Msg: fmt.Sprintf("rpc: no epoch task %q", name)}
	}
	return et, nil
}

// handleEpochDeploy creates the rotator for an epoch task (the active
// copy deploys immediately; epoch 0 = nothing completed yet).
func (s *Server) handleEpochDeploy(spec controlplane.TaskSpec) (EpochTaskResult, error) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if _, ok := s.epochs[spec.Name]; ok {
		return EpochTaskResult{}, fmt.Errorf("rpc: epoch task %q already deployed", spec.Name)
	}
	rot, err := epoch.NewRotator(s.ctrl, spec)
	if err != nil {
		return EpochTaskResult{}, err
	}
	s.epochs[spec.Name] = &epochTask{rot: rot, snaps: make(map[int]epochSnap)}
	t, err := s.ctrl.Task(rot.ActiveID())
	if err != nil {
		return EpochTaskResult{}, err
	}
	return EpochTaskResult{Task: taskResult(t), Epoch: 0}, nil
}

// handleEpochRotate advances an epoch task to the target epoch, caching a
// snapshot of each epoch's registers as it is frozen, and answers with the
// target epoch's snapshot — the rows read_epoch serves for it — so the
// caller collects the epoch in the rotation's own round trip. Sending the
// same target twice is a no-op (AdvanceTo is idempotent) that answers the
// same rows, so fleet controllers can retry after transport failures, and a
// daemon that missed rotations catches up — snapshotting every
// intermediate epoch — in one call. A target whose snapshot retention has
// already evicted answers no rows, under the daemon's latest epoch.
func (s *Server) handleEpochRotate(p EpochRotateParams) (*EpochRegistersResult, error) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	et, err := s.epochTaskLocked(p.Name)
	if err != nil {
		return nil, err
	}
	target := p.ToEpoch
	if target <= 0 {
		target = et.rot.Epoch() + 1
	}
	err = et.rot.AdvanceTo(target, func(ep, frozenID int) error {
		regs, err := s.readRegisters(frozenID)
		if err != nil {
			return fmt.Errorf("rpc: snapshotting %q epoch %d: %w", p.Name, ep, err)
		}
		h, err := s.ctrl.TaskHandle(frozenID)
		if err != nil {
			return fmt.Errorf("rpc: snapshotting %q epoch %d: %w", p.Name, ep, err)
		}
		et.snaps[ep] = epochSnap{res: EpochRegistersResult{Epoch: ep, FrozenID: frozenID, RegistersResult: *regs}, handle: h}
		delete(et.snaps, ep-EpochRetain)
		return nil
	})
	if err != nil {
		return nil, err
	}
	snap, ok := et.snaps[target]
	if !ok {
		return &EpochRegistersResult{Epoch: et.rot.Epoch()}, nil
	}
	return &snap.res, nil
}

// handleReadEpoch serves one completed epoch's snapshot. Epoch 0
// asks for the latest completed epoch. A missing epoch — not rotated to
// yet, or already evicted — answers with the classified unavailable
// error plus the daemon's current epoch, so the query plane knows whether
// this switch is behind (straggler) or the request is stale.
func (s *Server) handleReadEpoch(p ReadEpochParams) (*EpochRegistersResult, error) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	et, err := s.epochTaskLocked(p.Name)
	if err != nil {
		return nil, err
	}
	cur := et.rot.Epoch()
	e := p.Epoch
	if e <= 0 {
		e = cur
	}
	snap, ok := et.snaps[e]
	if !ok {
		return nil, epochUnavailable(p.Name, e, cur)
	}
	return &snap.res, nil
}

// handleEpochRemove reclaims an epoch task's two deployments and its
// snapshots.
func (s *Server) handleEpochRemove(p EpochTaskParams) error {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	et, err := s.epochTaskLocked(p.Name)
	if err != nil {
		return err
	}
	delete(s.epochs, p.Name)
	return et.rot.Close()
}

// handleKeyIndices answers a flow key's per-row register indices on a
// count-min task (CMS, or MRAC, a one-row CMS) — computed here from the daemon's own deterministic
// placement, so a query client without a mirror controller can probe
// merged fleet rows at exactly the right offsets. The ID may be a served
// epoch's frozen copy (EpochRegistersResult.FrozenID), reclaimed or not.
func (s *Server) handleKeyIndices(p KeyParams) (KeyIndicesResult, error) {
	h, err := s.retainedHandle(p.ID)
	if err != nil {
		return KeyIndicesResult{}, err
	}
	cms, ok := h.(interface {
		KeyIndices(packet.CanonicalKey) []uint32
	})
	if !ok {
		return KeyIndicesResult{}, fmt.Errorf("rpc: task %d is not a count-min task", p.ID)
	}
	return KeyIndicesResult{Indices: cms.KeyIndices(keyFromBytes(p.Key))}, nil
}

// retainedHandle resolves a task ID to its handle: the one captured with a
// served epoch snapshot whose frozen copy it names, else the controller's.
// IDs are never reused, so the two cannot disagree.
func (s *Server) retainedHandle(id int) (any, error) {
	s.epochMu.Lock()
	for _, et := range s.epochs {
		for _, snap := range et.snaps {
			if snap.res.FrozenID == id {
				s.epochMu.Unlock()
				return snap.handle, nil
			}
		}
	}
	s.epochMu.Unlock()
	return s.ctrl.TaskHandle(id)
}
