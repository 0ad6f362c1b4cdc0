package rpc

import (
	"fmt"

	"flymon/internal/controlplane"
	"flymon/internal/core/algorithms"
	"flymon/internal/epoch"
)

// EpochRetain is how many completed epochs' packed snapshots a daemon
// keeps per epoch task. The rotator itself only holds the last frozen
// copy's registers; snapshots are what let a slow query plane read epoch
// E-2 after the fleet has moved on. Four epochs comfortably covers a
// query racing one rotation plus a straggler catching up. Exported
// because the fleet controller keeps its merged epochs for exactly the
// same window (netwide's epoch artifacts): one number, not two.
const EpochRetain = 4

// epochTask is the daemon-side state of one epoch task: the rotator that
// owns the double-buffered deployments, plus each recent completed epoch's
// readout, packed once when the epoch was frozen. Snapshots are immutable
// once stored, so read_epoch hands the stored frame straight to the codec:
// serving an epoch costs zero encoding work.
type epochTask struct {
	rot   *epoch.Rotator
	snaps map[int]EpochRegistersResult // by completed epoch
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
	s.epochs[spec.Name] = &epochTask{rot: rot, snaps: make(map[int]EpochRegistersResult)}
	t, err := s.ctrl.Task(rot.ActiveID())
	if err != nil {
		return EpochTaskResult{}, err
	}
	return EpochTaskResult{Task: taskResult(t), Epoch: 0}, nil
}

// handleEpochRotate advances an epoch task to the target epoch, caching a
// packed snapshot of each epoch's registers as it is frozen. Sending the
// same target twice is a no-op (AdvanceTo is idempotent), so fleet
// controllers can retry after transport failures, and a daemon that
// missed rotations catches up — snapshotting every intermediate epoch —
// in one call.
func (s *Server) handleEpochRotate(p EpochRotateParams) (EpochTaskResult, error) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	et, err := s.epochTaskLocked(p.Name)
	if err != nil {
		return EpochTaskResult{}, err
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
		et.snaps[ep] = EpochRegistersResult{Epoch: ep, FrozenID: frozenID, RegistersResult: regs}
		delete(et.snaps, ep-EpochRetain)
		return nil
	})
	if err != nil {
		return EpochTaskResult{}, err
	}
	t, err := s.ctrl.Task(et.rot.ActiveID())
	if err != nil {
		return EpochTaskResult{}, err
	}
	return EpochTaskResult{Task: taskResult(t), Epoch: et.rot.Epoch()}, nil
}

// handleReadEpoch serves one completed epoch's packed snapshot. Epoch 0
// asks for the latest completed epoch. A missing epoch — not rotated to
// yet, or already evicted — answers with the classified unavailable
// error plus the daemon's current epoch, so the query plane knows whether
// this switch is behind (straggler) or the request is stale.
func (s *Server) handleReadEpoch(p ReadEpochParams) (EpochRegistersResult, error) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	et, err := s.epochTaskLocked(p.Name)
	if err != nil {
		return EpochRegistersResult{}, err
	}
	cur := et.rot.Epoch()
	e := p.Epoch
	if e <= 0 {
		e = cur
	}
	snap, ok := et.snaps[e]
	if !ok {
		return EpochRegistersResult{}, epochUnavailable(p.Name, e, cur)
	}
	return snap, nil
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
// frequency task — computed here from the daemon's own deterministic
// placement, so a query client without a mirror controller can probe
// merged fleet rows at exactly the right offsets.
func (s *Server) handleKeyIndices(p KeyParams) (KeyIndicesResult, error) {
	h, err := s.ctrl.TaskHandle(p.ID)
	if err != nil {
		return KeyIndicesResult{}, err
	}
	cms, ok := h.(*algorithms.CMSTask)
	if !ok {
		return KeyIndicesResult{}, fmt.Errorf("rpc: task %d is not a counter task", p.ID)
	}
	k := keyFromBytes(p.Key)
	out := KeyIndicesResult{Indices: make([]uint32, cms.D)}
	for i := 0; i < cms.D; i++ {
		out.Indices[i] = cms.RowIndexFor(i, k) - uint32(cms.Rows[i].Base)
	}
	return out, nil
}
