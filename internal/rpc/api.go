package rpc

import (
	"fmt"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/packet"
	"flymon/internal/tracing"
)

// Method names of the control channel.
const (
	MethodAddTask       = "add_task"
	MethodRemoveTask    = "remove_task"
	MethodResizeTask    = "resize_task"
	MethodListTasks     = "list_tasks"
	MethodEstimate      = "estimate"
	MethodCardinality   = "cardinality"
	MethodContains      = "contains"
	MethodReported      = "reported"
	MethodDistribution  = "distribution"
	MethodReadRegisters = "read_registers"
	MethodResources     = "resources"
	MethodReport        = "resource_report"
	MethodSplitTask     = "split_task"
	MethodGenTrace      = "gen_trace"
	MethodLoadTrace     = "load_trace"
	MethodReplay        = "replay"
	MethodStats         = "stats"
	MethodTelemetry     = "telemetry"
	MethodPing          = "ping"
	// MethodHello is the BFD-style liveness probe: a controller-side
	// session sends its state at a configured tx interval and the daemon
	// answers with its own, driving the Down/Init/Up three-way handshake
	// (see internal/netwide liveness). Unlike MethodPing it carries session
	// state, so both ends learn not just "reachable" but "the peer has seen
	// my recent hellos" — and a restarted daemon is unmasked immediately by
	// its fresh session state and changed incarnation.
	MethodHello = "hello"
	// MethodDebugPanic is an operator fault drill: the handler panics on
	// purpose so deployments can verify the daemon's panic containment
	// (the panic becomes an error Response; the daemon keeps serving).
	MethodDebugPanic = "debug_panic"

	// Epoch-coherent readout protocol (the fleet merge tree's snapshot
	// plane). A daemon hosts an epoch.Rotator per epoch task: epoch_deploy
	// creates it, epoch_rotate advances it to a target epoch (idempotent —
	// safe to re-send, and a straggler catches up in one call) caching a
	// packed register snapshot per completed epoch, read_epoch serves a
	// cached snapshot, and epoch_remove reclaims both copies.
	MethodEpochDeploy = "epoch_deploy"
	MethodEpochRotate = "epoch_rotate"
	MethodReadEpoch   = "read_epoch"
	MethodEpochRemove = "epoch_remove"
	// MethodKeyIndices maps a flow key to its per-row register indices on a
	// frequency task — the piece a mirror-less query client (flymonctl
	// query) needs to turn merged fleet rows into a per-key estimate.
	MethodKeyIndices = "key_indices"
	// MethodTraceDump exports the daemon's bounded span buffer: the
	// controller (or flymonctl trace) collects dumps fleet-wide and
	// assembles them with its own spans into end-to-end trace trees.
	MethodTraceDump = "trace_dump"
)

// Liveness session states on the wire (the BFD-style three-way handshake
// values; AdminDown is not modeled — a closed session simply stops
// probing).
const (
	HelloStateDown = 0
	HelloStateInit = 1
	HelloStateUp   = 2
)

// HelloStateString renders a wire-level session state.
func HelloStateString(s int) string {
	switch s {
	case HelloStateDown:
		return "down"
	case HelloStateInit:
		return "init"
	case HelloStateUp:
		return "up"
	default:
		return fmt.Sprintf("state(%d)", s)
	}
}

// HelloParams is one liveness probe. Session is the sender's discriminator
// (unique per session instance, so a restarted controller starts a fresh
// handshake instead of inheriting stale daemon-side state); State is the
// sender's current session state; TxIntervalNs advertises the sender's tx
// cadence so the daemon can garbage-collect sessions that stopped probing.
type HelloParams struct {
	Session      string `json:"session"`
	State        int    `json:"state"`
	TxIntervalNs int64  `json:"tx_interval_ns,omitempty"`
}

// HelloResult answers a probe with the daemon's session state after
// processing the received state (the other half of the three-way
// handshake). Incarnation identifies this daemon process instance: it
// changes when the daemon restarts, so a controller that sees a new
// incarnation knows the daemon's tasks are gone even if the restart fell
// between two probes. Tasks is the deployed task count — a cheap
// convergence signal for fleet status displays.
type HelloResult struct {
	State       int   `json:"state"`
	Incarnation int64 `json:"incarnation"`
	UptimeNs    int64 `json:"uptime_ns"`
	Tasks       int   `json:"tasks"`
	Sessions    int   `json:"sessions"`
}

// TaskResult describes a deployed task.
type TaskResult struct {
	ID          int           `json:"id"`
	Name        string        `json:"name"`
	Algorithm   string        `json:"algorithm"`
	D           int           `json:"d"`
	Groups      []int         `json:"groups"`
	Buckets     int           `json:"buckets"`
	MemoryBytes int           `json:"memory_bytes"`
	Delay       time.Duration `json:"deploy_delay_ns"`
	// Fingerprint is the task's layout fingerprint
	// (controlplane.Task.Fingerprint): what a fleet controller compares
	// before it merges this switch's rows with another's.
	Fingerprint uint64 `json:"fingerprint"`
}

// TaskIDParams addresses an existing task.
type TaskIDParams struct {
	ID int `json:"id"`
}

// ResizeParams changes a task's memory.
type ResizeParams struct {
	ID         int `json:"id"`
	NewBuckets int `json:"new_buckets"`
}

// KeyParams addresses a task and a canonical flow key.
type KeyParams struct {
	ID  int    `json:"id"`
	Key []byte `json:"key"` // packet.CanonicalKey bytes
}

// CandidatesParams addresses a task and candidate keys for detection.
type CandidatesParams struct {
	ID         int      `json:"id"`
	Candidates [][]byte `json:"candidates"`
}

// EstimateResult is a scalar estimate.
type EstimateResult struct {
	Value float64 `json:"value"`
}

// BoolResult is a boolean answer.
type BoolResult struct {
	Value bool `json:"value"`
}

// ReportedResult lists the detected keys.
type ReportedResult struct {
	Keys [][]byte `json:"keys"`
}

// DistributionResult is an estimated flow-size distribution plus entropy.
type DistributionResult struct {
	Sizes   []uint64  `json:"sizes"`
	Counts  []float64 `json:"counts"`
	Entropy float64   `json:"entropy"`
}

// frameProvider is implemented by result types whose bulk payload rides
// the binary frame side-channel: the server writes the returned bytes
// after the response line instead of encoding them into the JSON body.
type frameProvider interface{ frameBytes() []byte }

// frameReceiver is the client side of the side-channel: callOnce hands a
// result the raw frame bytes it consumed off the stream.
type frameReceiver interface{ setFrameBytes([]byte) }

// RegistersResult is a raw register readout: RowLens announces a binary
// frame of little-endian uint32 registers following the response line,
// sliced into rows (one per CMU row) of the given lengths. A profile of
// 256-switch fleet queries showed register data carried inside the JSON
// body spending most of each query in encoding/json (validate + compact +
// unquote passes over the bulk); the frame is the difference between the
// codec dominating query latency and the merge kernels dominating it.
// Fingerprint is the layout fingerprint of the task the rows were read from:
// a readout carries what a merge needs to know about how it is indexed.
type RegistersResult struct {
	RowLens     []int  `json:"row_lens"`
	Fingerprint uint64 `json:"fingerprint"`
	frame       []byte
}

func (r RegistersResult) frameBytes() []byte      { return r.frame }
func (r *RegistersResult) setFrameBytes(b []byte) { r.frame = b }

// FrameRows decodes the readout into dst (geometry-matched buffers are
// reused, see unpackFrame).
func (r *RegistersResult) FrameRows(dst [][]uint32) [][]uint32 {
	return unpackFrame(r.frame, r.RowLens, dst)
}

// ResourcesResult reports free memory per CMU and deployed task count.
type ResourcesResult struct {
	FreeBuckets [][]int `json:"free_buckets"`
	Tasks       int     `json:"tasks"`
}

// SplitResult reports the two subtasks a split produced.
type SplitResult struct {
	Lo TaskResult `json:"lo"`
	Hi TaskResult `json:"hi"`
}

// LoadTraceParams points the daemon at a binary trace file on its local
// filesystem (the trafficgen output format).
type LoadTraceParams struct {
	Path string `json:"path"`
}

// ReportResult carries the per-group occupancy report.
type ReportResult struct {
	Groups []controlplane.GroupReport `json:"groups"`
}

// GenTraceParams synthesizes a workload inside the daemon.
type GenTraceParams struct {
	Flows   int     `json:"flows"`
	Packets int     `json:"packets"`
	ZipfS   float64 `json:"zipf_s"`
	Seed    int64   `json:"seed"`
}

// ReplayParams pushes packets from the loaded trace through the pipeline.
type ReplayParams struct {
	Packets int `json:"packets"` // 0 = whole trace
}

// ReplayResult reports how many packets were processed.
type ReplayResult struct {
	Processed int `json:"processed"`
}

// StatsResult reports daemon counters.
type StatsResult struct {
	PacketsProcessed uint64 `json:"packets_processed"`
	TracePackets     int    `json:"trace_packets"`
	Tasks            int    `json:"tasks"`
}

// EpochTaskParams addresses an epoch task by its spec name (epoch tasks
// live outside the plain task-ID space: each owns two rotating task IDs).
type EpochTaskParams struct {
	Name string `json:"name"`
}

// EpochRotateParams advances an epoch task. ToEpoch is the target epoch
// number; 0 means "advance by exactly one from wherever you are" (a
// convenience for single-daemon tooling — fleet controllers always send an
// explicit target so retries and stragglers converge instead of
// double-rotating).
type EpochRotateParams struct {
	Name    string `json:"name"`
	ToEpoch int    `json:"to_epoch,omitempty"`
}

// EpochTaskResult describes an epoch task: the active copy and the
// rotation state.
type EpochTaskResult struct {
	Task  TaskResult `json:"task"`
	Epoch int        `json:"epoch"`
}

// ReadEpochParams requests one completed epoch's register snapshot.
// Epoch 0 means "your latest completed epoch".
type ReadEpochParams struct {
	Name  string `json:"name"`
	Epoch int    `json:"epoch,omitempty"`
}

// EpochRegistersResult is a register readout pinned to an epoch boundary:
// Epoch is the epoch the rows belong to, FrozenID the task ID they were read
// from (the handle key_indices needs). The readout was packed when the epoch
// was frozen, fingerprint included, so serving it costs no encoding work.
type EpochRegistersResult struct {
	Epoch    int `json:"epoch"`
	FrozenID int `json:"frozen_id"`
	RegistersResult
}

// KeyIndicesResult carries a flow key's per-row register indices on a
// frequency task (row i of the task's registers is probed at Indices[i]).
type KeyIndicesResult struct {
	Indices []uint32 `json:"indices"`
}

// TraceDumpParams requests the daemon's recorded spans. Limit, when
// positive, returns only the newest Limit spans (the dump is bounded by
// the daemon's span buffer regardless).
type TraceDumpParams struct {
	Limit int `json:"limit,omitempty"`
}

// TraceDumpResult carries one process's span-buffer snapshot plus its
// lifetime totals, so collectors can report drop rates alongside trees.
type TraceDumpResult struct {
	Spans   []tracing.Span `json:"spans,omitempty"`
	Total   uint64         `json:"total"`
	Dropped uint64         `json:"dropped"`
}

// keyFromBytes converts wire bytes into a canonical key.
func keyFromBytes(b []byte) packet.CanonicalKey {
	var k packet.CanonicalKey
	copy(k[:], b)
	return k
}
