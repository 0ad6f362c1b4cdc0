package algorithms_test

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"flymon/internal/controlplane"
	"flymon/internal/core"
	"flymon/internal/core/algorithms"
	"flymon/internal/dataplane"
	"flymon/internal/metrics"
	"flymon/internal/mmtrace"
	"flymon/internal/netwide"
	"flymon/internal/packet"
	"flymon/internal/sketch"
	"flymon/internal/trace"
)

// The conformance suite checks every algorithm a TaskSpec can deploy
// against its theoretical error bound, on the code that ships: each task
// is deployed through Controller.AddTask and read through the controller's
// own queries. A row is one algorithm on one workload:
//
//   - the bound is checked once, on the frame engine (ReplayTrace on one
//     worker, which executes in trace order and, as every register's sole
//     writer, stores plainly);
//   - the sequential ProcessBatch reference and two-worker pools, one on
//     shared buckets (CAS and fetch-and-add) and one sharded, must
//     reproduce the frame engine's registers bit for bit — the pools only
//     those register rows whose final state does not depend on packet
//     order;
//   - the controller's typed answers must equal the algorithm's decoder
//     (algorithms.Readout) over the task's ReadRegisters rows, the readout
//     a fleet merges;
//   - the trace is split over a four-switch loopback fleet and the epoch
//     read the default way (Epoch, the merge op the task's rules give):
//     the seven algorithms whose rules merge exactly (CMS and MRAC add, HLL
//     and SuMax(Max) max, Bloom, BeauCoup and LinearCounting or) must give
//     the frame engine's rows and typed answers, and the other four must
//     be refused;
//   - finally the row's readout is broken on purpose (the mutation), and
//     the bound must catch it.
//
// The bounds come from the sketch survey in PAPERS.md ("A survey of
// sketches in traffic measurement") and the papers it cites; each bound
// names its source. Slack for a measured share is three binomial standard
// deviations.

const (
	baseFlows   = 8000
	basePackets = 40_000
	// threshold is the BeauCoup rows' distinct-count threshold.
	threshold = 512
)

// workload is one seeded trace, in both forms the engines take.
type workload struct {
	packets []packet.Packet
	frames  *mmtrace.Trace
	// frequency is the exact per-five-tuple packet count, which most rows
	// score against.
	frequency func() map[packet.CanonicalKey]uint64
}

func newWorkload(tr *trace.Trace) *workload {
	w := &workload{packets: tr.Packets, frames: mmtrace.FromPackets(tr.Packets)}
	w.frequency = sync.OnceValue(func() map[packet.CanonicalKey]uint64 {
		exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
		for i := range w.packets {
			exact.AddPacket(&w.packets[i])
		}
		return exact.Counts()
	})
	return w
}

func zipf(s float64, seed int64) *trace.Trace {
	return trace.Generate(trace.Config{Flows: baseFlows, Packets: basePackets, ZipfS: s, Seed: seed})
}

// scanDDoS is a Zipf trace carrying eight DDoS victims and eight port
// scanners at 2×–3× the threshold, and eight of each at ¼×–½× of it.
func scanDDoS() *trace.Trace {
	tr := zipf(1.2, 6)
	for i := range 8 {
		loud := 2*threshold + i*threshold/8
		quiet := threshold/4 + i*threshold/32
		tr.InjectDDoS(packet.IPv4(10, 1, 0, byte(i)), loud, 1, int64(10+i))
		tr.InjectDDoS(packet.IPv4(10, 2, 0, byte(i)), quiet, 1, int64(20+i))
		tr.InjectPortScan(packet.IPv4(10, 3, 0, byte(i)), packet.IPv4(10, 4, 0, byte(i)), loud, int64(30+i))
		tr.InjectPortScan(packet.IPv4(10, 5, 0, byte(i)), packet.IPv4(10, 6, 0, byte(i)), quiet, int64(40+i))
	}
	return tr
}

// distinct is a sweep point for the cardinality rows: n one-packet flows.
func distinct(n int) *trace.Trace {
	tr := &trace.Trace{}
	tr.InjectSpike(n, 1, 0, 1, int64(n))
	return tr
}

func lazily(gen func() *trace.Trace) func() *workload {
	return sync.OnceValue(func() *workload { return newWorkload(gen()) })
}

// workloads is the workload axis, each generated once on first use.
var workloads = map[string]func() *workload{
	"zipf-1.1": lazily(func() *trace.Trace { return zipf(1.1, 1) }),
	"zipf-1.5": lazily(func() *trace.Trace { return zipf(1.5, 2) }),
	"zipf-2.0": lazily(func() *trace.Trace { return zipf(2.0, 3) }),
	// A flash crowd doubles the flow count for a tenth of the trace.
	"flash-crowd": lazily(func() *trace.Trace {
		tr := zipf(1.2, 4)
		tr.InjectSpike(baseFlows, 2, 0.45, 0.55, 5)
		return tr
	}),
	"scan-ddos":     lazily(scanDDoS),
	"distinct-1k":   lazily(func() *trace.Trace { return distinct(1_000) }),
	"distinct-8k":   lazily(func() *trace.Trace { return distinct(8_000) }),
	"distinct-32k":  lazily(func() *trace.Trace { return distinct(32_000) }),
	"distinct-250k": lazily(func() *trace.Trace { return distinct(250_000) }),
}

var mixed = []string{"zipf-1.1", "zipf-1.5", "zipf-2.0", "flash-crowd", "scan-ddos"}

// deployment is one controller carrying the row's task.
type deployment struct {
	ctrl  *controlplane.Controller
	task  *controlplane.Task
	width int // register bucket width
}

// readout is how a bound reads its task: the controller's own queries, or
// a deliberately broken stand-in (the mutation).
type readout struct {
	estimate     func(packet.CanonicalKey) float64
	cardinality  func() float64
	contains     func(packet.CanonicalKey) bool
	reported     func([]packet.CanonicalKey) map[packet.CanonicalKey]bool
	distribution func() map[uint64]float64
	registers    func() [][]uint32
}

// must returns a query's value, failing the test on its error.
func must[T any](t *testing.T) func(T, error) T {
	return func(v T, err error) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func queries(t *testing.T, d deployment) readout {
	id := d.task.ID
	return readout{
		estimate:    func(k packet.CanonicalKey) float64 { return must[float64](t)(d.ctrl.EstimateKey(id, k)) },
		cardinality: func() float64 { return must[float64](t)(d.ctrl.Cardinality(id)) },
		contains:    func(k packet.CanonicalKey) bool { return must[bool](t)(d.ctrl.Contains(id, k)) },
		reported: func(cands []packet.CanonicalKey) map[packet.CanonicalKey]bool {
			return must[map[packet.CanonicalKey]bool](t)(d.ctrl.Reported(id, cands))
		},
		distribution: func() map[uint64]float64 {
			dist, _, err := d.ctrl.Distribution(id)
			return must[map[uint64]float64](t)(dist, err)
		},
		registers: func() [][]uint32 { return must[[][]uint32](t)(d.ctrl.ReadRegisters(id)) },
	}
}

func handle[T any](t *testing.T, d deployment) T {
	t.Helper()
	h, ok := must[any](t)(d.ctrl.TaskHandle(d.task.ID)).(T)
	if !ok {
		t.Fatalf("task %q has no %T handle", d.task.Spec.Name, h)
	}
	return h
}

// cell is what a bound checks: a workload, the deployment that measured
// it and the readout to read the deployment through.
type cell struct {
	t  *testing.T
	w  *workload
	d  deployment
	rd readout
}

type row struct {
	name      string
	cfg       controlplane.Config
	spec      controlplane.TaskSpec
	workloads []string
	bound     func(c cell) error
	// mutation names the readout fault mutate injects.
	mutation string
	mutate   func(t *testing.T, d deployment) readout
	// orderFree lists the register rows whose final state is independent
	// of packet order (nil: every row) — what the two-worker pools, whose
	// spans interleave, must reproduce bit for bit.
	orderFree []int
	// inexact says why the task's rows do not merge exactly across
	// switches ("": they do), so the fleet must refuse it.
	inexact string
}

func config(width int) controlplane.Config {
	return controlplane.Config{Groups: 3, Buckets: 16384, BitWidth: width, Workers: 1}
}

func rows() []row {
	five := packet.KeyFiveTuple
	flowKey := controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: five}
	shifted := "every index shifted by one bucket"
	beaucoup := func(width int) row {
		return row{
			name: fmt.Sprintf("beaucoup-%dbit", width), cfg: config(width),
			spec: controlplane.TaskSpec{Name: "beaucoup", Key: packet.KeyDstIP,
				Attribute: controlplane.AttrDistinct, Algorithm: controlplane.AlgBeauCoup,
				Param:     controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeySrcIP},
				Threshold: threshold, MemBuckets: 4096, D: 3},
			workloads: []string{"scan-ddos"},
			bound:     beaucoupBound(packet.KeyDstIP, packet.KeySrcIP),
			mutation:  shifted, mutate: rotate,
		}
	}
	portScan := beaucoup(32)
	portScan.name = "beaucoup-portscan"
	dstPort := packet.NewKeySpec(packet.FieldDstPort)
	portScan.spec.Key, portScan.spec.Param.Key = packet.KeyIPPair, dstPort
	portScan.bound = beaucoupBound(packet.KeyIPPair, dstPort)

	return []row{
		{
			name: "cms", cfg: config(32),
			spec: controlplane.TaskSpec{Name: "cms", Key: five, Attribute: controlplane.AttrFrequency,
				Algorithm: controlplane.AlgCMS, MemBuckets: 1024, D: 3},
			workloads: mixed, bound: countMinBound,
			mutation: shifted, mutate: rotate,
		},
		{
			// SuMax(Sum)'s conservative update never adds more than a CMS of
			// the same geometry would, so the CMS bound holds for it too. Its
			// later groups only add below the upstream minimum, which depends
			// on packet order; the first group always adds.
			name: "sumax-sum", cfg: config(32),
			spec: controlplane.TaskSpec{Name: "sumax", Key: five, Attribute: controlplane.AttrFrequency,
				Algorithm: controlplane.AlgSuMaxSum, MemBuckets: 1024, D: 3},
			workloads: mixed, bound: countMinBound,
			mutation: shifted, mutate: rotate, orderFree: []int{0},
			inexact: "each row adds only below the upstream minimum",
		},
		{
			name: "mrac", cfg: config(32),
			spec: controlplane.TaskSpec{Name: "mrac", Key: five, Attribute: controlplane.AttrFrequency,
				Algorithm: controlplane.AlgMRAC, MemBuckets: 4096},
			workloads: mixed, bound: mracBound,
			mutation: shifted, mutate: rotate,
		},
		{
			// Every level counts every packet of its colliding flows until
			// it saturates, and the estimate skips saturated levels, so it
			// never reads below the truth (TowerSketch, Yang et al.).
			name: "tower", cfg: config(32),
			spec: controlplane.TaskSpec{Name: "tower", Key: five, Attribute: controlplane.AttrFrequency,
				Algorithm: controlplane.AlgTower, MemBuckets: 1024, D: 3},
			workloads: mixed,
			bound:     func(c cell) error { return neverUnder(c, c.w.frequency()) },
			mutation:  shifted, mutate: rotate,
			inexact: "each level adds only below its saturation guard",
		},
		{
			// 16-bit buckets give an 8-bit first layer that heavy flows
			// overflow into the second. Which flow's packets overflow
			// depends on packet order; the first layer's saturating count
			// does not.
			name: "counterbraids", cfg: config(16),
			spec: controlplane.TaskSpec{Name: "cb", Key: five, Attribute: controlplane.AttrFrequency,
				Algorithm: controlplane.AlgCounterBraids, MemBuckets: 16384},
			workloads: mixed, bound: counterBraidsBound,
			mutation: shifted, mutate: rotate, orderFree: []int{0},
			inexact: "the second layer counts the first layer's overflow",
		},
		beaucoup(8), beaucoup(16), beaucoup(32), portScan,
		{
			name: "hll", cfg: config(32),
			spec: controlplane.TaskSpec{Name: "hll", Attribute: controlplane.AttrDistinct,
				Algorithm: controlplane.AlgHLL, Param: flowKey, MemBuckets: 4096},
			workloads: append([]string{"distinct-1k", "distinct-32k", "distinct-250k"}, mixed...),
			bound:     hllBound,
			mutation:  "the estimator given half the registers", mutate: halfHLL,
		},
		{
			name: "linearcounting", cfg: config(32),
			spec: controlplane.TaskSpec{Name: "lc", Attribute: controlplane.AttrDistinct,
				Algorithm: controlplane.AlgLinearCounting, Param: flowKey, MemBuckets: 512},
			workloads: append([]string{"distinct-1k", "distinct-8k", "distinct-32k"}, mixed...),
			bound:     linearCountingBound,
			mutation:  "the estimator given half the bits", mutate: halfLinearCounting,
		},
		{
			name: "bloom", cfg: config(32),
			spec: controlplane.TaskSpec{Name: "bloom", Attribute: controlplane.AttrExistence,
				Algorithm: controlplane.AlgBloom, Param: flowKey, MemBuckets: 1024, D: 3},
			workloads: mixed, bound: bloomBound,
			mutation: shifted, mutate: rotate,
		},
		{
			// Every row keeps the maximum over the flows sharing its bucket,
			// one of which is the key's own, so the row minimum never reads
			// below the key's maximum (SuMax, Li et al.).
			name: "sumax-max", cfg: config(32),
			spec: controlplane.TaskSpec{Name: "sumaxmax", Key: five, Attribute: controlplane.AttrMax,
				Algorithm: controlplane.AlgSuMaxMax,
				Param:     controlplane.ParamSpec{Kind: controlplane.ParamQueueLength}, MemBuckets: 1024, D: 3},
			workloads: mixed,
			bound: func(c cell) error {
				exact := sketch.NewExactMax(packet.KeyFiveTuple)
				for i := range c.w.packets {
					exact.Add(&c.w.packets[i], c.w.packets[i].QueueLength)
				}
				return neverUnder(c, exact.Values())
			},
			mutation: shifted, mutate: rotate,
		},
		{
			// The Bloom and arrival rows merge by OR and MAX; the interval
			// row subtracts the arrival the packet before it left, which
			// depends on packet order.
			name: "maxinterval", cfg: config(32),
			spec: controlplane.TaskSpec{Name: "interval", Key: five, Attribute: controlplane.AttrMax,
				Algorithm: controlplane.AlgMaxInterval,
				Param:     controlplane.ParamSpec{Kind: controlplane.ParamPacketInterval}, MemBuckets: 16384},
			workloads: mixed, bound: maxIntervalBound,
			mutation: shifted, mutate: rotate, orderFree: []int{0, 1},
			inexact: "the interval row reads the previous arrival and the new-flow test",
		},
	}
}

func TestConformance(t *testing.T) {
	for _, r := range rows() {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			for _, name := range r.workloads {
				t.Run(name, func(t *testing.T) { r.run(t, workloads[name]()) })
			}
		})
	}
}

// TestMultiTraceReplayInOrder: a one-worker replay of two traces over two
// passes runs them A, B, A, B, so the registers of an order-dependent task
// (SuMax(Sum), whose later rows add only below the upstream minimum) end
// bit-identical to ProcessBatch over that sequence.
func TestMultiTraceReplayInOrder(t *testing.T) {
	var r row
	for _, r = range rows() {
		if r.name == "sumax-sum" {
			break
		}
	}
	w := workloads["zipf-1.1"]()
	half := len(w.packets) / 2
	a, b := w.packets[:half], w.packets[half:]
	rep, err := mmtrace.NewReplayer(mmtrace.ReplayConfig{
		Traces:  []*mmtrace.Trace{mmtrace.FromPackets(a), mmtrace.FromPackets(b)},
		Workers: 1, Passes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	replay := r.deploy(t, r.cfg)
	replay.ctrl.ProcessFrameSource(rep)
	batch := r.deploy(t, r.cfg)
	for _, ps := range [][]packet.Packet{a, b, a, b} {
		batch.ctrl.ProcessBatch(ps)
	}
	sameRows(t, "ProcessBatch over A, B, A, B", queries(t, replay).registers(), queries(t, batch).registers(), nil)
}

func (r row) deploy(t *testing.T, cfg controlplane.Config) deployment {
	t.Helper()
	ctrl := controlplane.NewController(cfg)
	t.Cleanup(ctrl.Close)
	task, err := ctrl.AddTask(r.spec)
	if err != nil {
		t.Fatalf("deploy %s: %v", r.spec.Name, err)
	}
	return deployment{ctrl: ctrl, task: task, width: cfg.BitWidth}
}

func (r row) run(t *testing.T, w *workload) {
	frame := r.deploy(t, r.cfg)
	frame.ctrl.ReplayTrace(w.frames)
	if err := r.bound(cell{t, w, frame, queries(t, frame)}); err != nil {
		t.Fatalf("frame engine: %v", err)
	}
	want := queries(t, frame).registers()
	keys := probeKeys(r.spec, w)
	sameAnswers(t, "the decoder over ReadRegisters", switchAnswers{frame},
		algorithms.Bind(handle[any](t, frame), want, r.spec.Threshold), keys)

	batch := r.deploy(t, r.cfg)
	batch.ctrl.ProcessBatch(w.packets)
	sameRows(t, "ProcessBatch", want, queries(t, batch).registers(), nil)

	for _, sharded := range []bool{false, true} {
		cfg := r.cfg
		cfg.ShardedState, cfg.Workers = sharded, 2
		pool := r.deploy(t, cfg)
		pool.ctrl.ReplayTrace(w.frames)
		engine := "two-worker shared pool"
		if sharded {
			engine = "two-worker sharded pool"
		}
		sameRows(t, engine, want, queries(t, pool).registers(), r.orderFree)
	}

	r.fleet(t, w, frame, want, keys)

	err := r.bound(cell{t, w, frame, r.mutate(t, frame)})
	if err == nil {
		t.Fatalf("mutation (%s) went undetected", r.mutation)
	}
	t.Logf("mutation (%s) caught: %v", r.mutation, err)
}

// fleet deploys the row's task as an epoch task on a four-switch loopback
// fleet, splits the trace over the switches packet by packet, rotates once
// and reads the epoch under the task's own merge op. A task whose rows
// merge exactly must give the frame engine's rows and typed answers; any
// other is refused as soon as it is deployed.
func (r row) fleet(t *testing.T, w *workload, frame deployment, want [][]uint32, keys []packet.CanonicalKey) {
	const n = 4
	fleet, switches, stop := netwide.NewLoopbackFleet(n, r.cfg, netwide.FleetOptions{})
	defer func() {
		stop()
		for _, s := range switches {
			s.Close()
		}
	}()
	if err := fleet.DeployEpoch(r.spec); err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if r.inexact != "" {
		if _, err := fleet.Epoch(r.spec.Name, 0, netwide.EpochQuery{}); !errors.Is(err, netwide.ErrInexactMerge) {
			t.Fatalf("fleet answers a task whose rows do not merge exactly (%s): %v", r.inexact, err)
		}
		return
	}
	parts := make([][]packet.Packet, n)
	for i := range w.packets {
		parts[i%n] = append(parts[i%n], w.packets[i])
	}
	for i, s := range switches {
		s.ReplayTrace(mmtrace.FromPackets(parts[i]))
	}
	if _, err := fleet.RotateEpoch(r.spec.Name); err != nil {
		t.Fatalf("fleet: %v", err)
	}
	art, err := fleet.Epoch(r.spec.Name, 0, netwide.EpochQuery{})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	sameRows(t, "four-switch fleet merge", want, art.Rows, nil)
	sameAnswers(t, "the four-switch fleet", switchAnswers{frame}, fleetAnswers{art}, keys)
}

// answerer is a source of typed answers: a switch's controller, the
// decoder over a readout, or a fleet's epoch artifact.
type answerer interface {
	EstimateKey(packet.CanonicalKey) (float64, error)
	Cardinality() (float64, error)
	Contains(packet.CanonicalKey) (bool, error)
	Reported([]packet.CanonicalKey) (map[packet.CanonicalKey]bool, error)
}

type switchAnswers struct{ d deployment }

func (s switchAnswers) EstimateKey(k packet.CanonicalKey) (float64, error) {
	return s.d.ctrl.EstimateKey(s.d.task.ID, k)
}
func (s switchAnswers) Cardinality() (float64, error) { return s.d.ctrl.Cardinality(s.d.task.ID) }
func (s switchAnswers) Contains(k packet.CanonicalKey) (bool, error) {
	return s.d.ctrl.Contains(s.d.task.ID, k)
}
func (s switchAnswers) Reported(cands []packet.CanonicalKey) (map[packet.CanonicalKey]bool, error) {
	return s.d.ctrl.Reported(s.d.task.ID, cands)
}

type fleetAnswers struct{ netwide.EpochArtifact }

func (f fleetAnswers) EstimateKey(k packet.CanonicalKey) (float64, error) { return f.Estimate(k) }

// probeKeys is 64 keys of the workload's packets under both the five-tuple
// and the row's own key.
func probeKeys(spec controlplane.TaskSpec, w *workload) []packet.CanonicalKey {
	var keys []packet.CanonicalKey
	for i := range 64 {
		p := &w.packets[i*len(w.packets)/64]
		keys = append(keys, packet.KeyFiveTuple.Extract(p), spec.Key.Extract(p))
	}
	return keys
}

// sameAnswers fails unless got answers exactly the questions want answers,
// with equal answers, over keys, and want answers at least one.
func sameAnswers(t *testing.T, what string, want, got answerer, keys []packet.CanonicalKey) {
	t.Helper()
	answered := 0
	check := func(question string, w, g any, werr, gerr error) {
		t.Helper()
		switch {
		case (werr == nil) != (gerr == nil):
			t.Fatalf("%s: %s: the switch says %v, %s says %v", what, question, werr, what, gerr)
		case werr == nil && !reflect.DeepEqual(w, g):
			t.Fatalf("%s: %s = %v, the switch answers %v", what, question, g, w)
		case werr == nil:
			answered++
		}
	}
	for _, k := range keys {
		w, werr := want.EstimateKey(k)
		g, gerr := got.EstimateKey(k)
		check("estimate", w, g, werr, gerr)
		wIn, werr := want.Contains(k)
		gIn, gerr := got.Contains(k)
		check("membership", wIn, gIn, werr, gerr)
	}
	w, werr := want.Cardinality()
	g, gerr := got.Cardinality()
	check("cardinality", w, g, werr, gerr)
	wRep, werr := want.Reported(keys)
	gRep, gerr := got.Reported(keys)
	check("report", wRep, gRep, werr, gerr)
	if answered == 0 {
		t.Fatalf("%s: the switch answers no question", what)
	}
}

// sameRows fails unless got equals want bit for bit in the listed rows
// (nil: all of them).
func sameRows(t *testing.T, engine string, want, got [][]uint32, only []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d register rows, frame engine %d", engine, len(got), len(want))
	}
	if only == nil {
		for i := range want {
			only = append(only, i)
		}
	}
	for _, r := range only {
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("%s: row %d bucket %d = %d, frame engine %d", engine, r, i, got[r][i], want[r][i])
			}
		}
	}
}

// --- Mutations ---

// rotate shifts every index the readout uses by one bucket: each of the
// task's partitions is rotated one bucket under the controller's queries.
func rotate(t *testing.T, d deployment) readout {
	for _, loc := range d.ctrl.Pipeline().Locate(d.task.ID) {
		reg, mem := loc.Group.CMU(loc.CMU).Register(), loc.Rule.Mem
		vals := reg.ReadRange(mem.Base, mem.Buckets)
		reg.ClearRange(mem.Base, mem.Buckets)
		for i := range vals {
			reg.ApplySeq(dataplane.OpMax, uint32(mem.Base+i), vals[(i+1)%len(vals)], 0)
		}
	}
	return queries(t, d)
}

func halfHLL(t *testing.T, d deployment) readout {
	rd := queries(t, d)
	rd.cardinality = func() float64 {
		ranks := rd.registers()[0]
		return sketch.HLLEstimateFromRanks(ranks[:len(ranks)/2])
	}
	return rd
}

func halfLinearCounting(t *testing.T, d deployment) readout {
	rd := queries(t, d)
	rd.cardinality = func() float64 {
		buckets := rd.registers()[0]
		half := buckets[:len(buckets)/2]
		return sketch.LinearCountingFromZeros(len(half)*d.width-onesCount(half), len(half)*d.width)
	}
	return rd
}

// --- Bounds ---

// atMost fails when more than the expected count plus three standard
// deviations of the events whose probabilities are ps happened.
func atMost(what string, hits int, ps []float64) error {
	var mean, variance float64
	for _, p := range ps {
		mean += p
		variance += p * (1 - p)
	}
	if limit := mean + 3*math.Sqrt(variance); float64(hits) > limit {
		return fmt.Errorf("%s: %d of %d, bound %.1f", what, hits, len(ps), limit)
	}
	return nil
}

// shareAtMost is atMost for n events of one probability p.
func shareAtMost(what string, hits, n int, p float64) error {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = p
	}
	return atMost(what, hits, ps)
}

func neverUnder(c cell, truth map[packet.CanonicalKey]uint64) error {
	for k, v := range truth {
		if est := c.rd.estimate(k); est < float64(v) {
			return fmt.Errorf("under-estimate: a key with %d reads %.0f", v, est)
		}
	}
	return nil
}

// countMinBound is the Count-Min guarantee (Cormode & Muthukrishnan, the
// survey's §3): never under, and with d rows of w counters over a stream of
// N updates, a key overshoots by more than ⌈e/w·N⌉ with probability at most
// e^−d.
func countMinBound(c cell) error {
	truth := c.w.frequency()
	if err := neverUnder(c, truth); err != nil {
		return err
	}
	eps := math.Ceil(math.E / float64(c.d.task.Buckets) * float64(len(c.w.packets)))
	over := 0
	for k, v := range truth {
		if c.rd.estimate(k)-float64(v) > eps {
			over++
		}
	}
	return shareAtMost(fmt.Sprintf("keys overshooting by more than %.0f", eps), over, len(truth), math.Exp(-float64(c.d.task.D)))
}

// lcBound is Whang et al.'s standard error of Linear Counting over m bits,
// √(m(eᵗ−t−1))/n at load t = n/m, allowed four times.
func lcBound(m, n int) float64 {
	load := float64(n) / float64(m)
	return 4 * math.Sqrt(float64(m)*(math.Exp(load)-load-1)) / float64(n)
}

func distinctFlows(w *workload) int { return len(w.frequency()) }

// hllBound is HyperLogLog's standard error 1.04/√m (Flajolet et al.),
// allowed four times.
func hllBound(c cell) error {
	n, m := distinctFlows(c.w), c.d.task.Buckets
	est := c.rd.cardinality()
	if re, bound := metrics.RE(float64(n), est), 4*1.04/math.Sqrt(float64(m)); re > bound {
		return fmt.Errorf("HLL over %d registers reads %.0f for %d keys: RE %.3f > 4σ %.3f", m, est, n, re, bound)
	}
	return nil
}

// linearCountingBound checks FlyMon-LinearCounting, whose bitmap is every
// bit of its buckets, against Whang et al.
func linearCountingBound(c cell) error {
	n, m := distinctFlows(c.w), c.d.task.Buckets*c.d.width
	est := c.rd.cardinality()
	if re, bound := metrics.RE(float64(n), est), lcBound(m, n); re > bound {
		return fmt.Errorf("LC over %d bits reads %.0f for %d keys: RE %.4f > 4σ %.4f", m, est, n, re, bound)
	}
	return nil
}

// mracMaxSize is the EM support Controller.Distribution hands
// analysis.MRACDistribution: a counter above it is read as one large flow.
const mracMaxSize = 1024

// mracBound checks FlyMon-MRAC, a one-row counter array (Kumar et al.):
// every packet lands in exactly one counter, so Σ counters = N; a counter
// holds at least its own flow, so the per-key reading never falls below
// the truth; and the distribution's flow count is the Linear Counting
// estimate over the counter array (the EM's n̂ = m·ln(m/m₀)) plus one flow
// per counter above the EM support, so it obeys Whang et al.'s bound.
func mracBound(c cell) error {
	counters := c.rd.registers()[0]
	var sum uint64
	heavy := 0
	for _, v := range counters {
		sum += uint64(v)
		if v > mracMaxSize {
			heavy++
		}
	}
	if sum != uint64(len(c.w.packets)) {
		return fmt.Errorf("Σ counters = %d, packets = %d", sum, len(c.w.packets))
	}
	if err := neverUnder(c, c.w.frequency()); err != nil {
		return err
	}
	var flows float64
	for _, n := range c.rd.distribution() {
		flows += n
	}
	n, m := distinctFlows(c.w), len(counters)
	if re, bound := metrics.RE(float64(n), flows-float64(heavy)), lcBound(m, n); re > bound {
		return fmt.Errorf("distribution counts %.0f flows (%d above the EM support) for %d: RE %.4f > 4σ %.4f",
			flows, heavy, n, re, bound)
	}
	return nil
}

// counterBraidsBound checks FlyMon-CounterBraids (Lu et al.'s two-layer
// braid): a flow's packets are counted either in its first-layer counter
// or, once that saturated, in its second-layer one, so layer 1 + layer 2
// never reads below the truth (while the wide layer does not saturate).
// The braid decodes a key exactly at least whenever no other key shares
// either of its counters, which with K keys over m counters per layer
// happens with probability (1−1/m)^(2(K−1)): below the load where that
// probability vanishes, at least that share of keys decodes exactly.
func counterBraidsBound(c cell) error {
	truth := c.w.frequency()
	if err := neverUnder(c, truth); err != nil {
		return err
	}
	exact := 0
	for k, v := range truth {
		if c.rd.estimate(k) == float64(v) {
			exact++
		}
	}
	m, keys := float64(c.d.task.Buckets), len(truth)
	p := math.Pow(1-1/m, 2*float64(keys-1))
	if least := p - 3*math.Sqrt(p*(1-p)/float64(keys)); float64(exact) < least*float64(keys) {
		return fmt.Errorf("%d of %d keys decode exactly, bound %.0f", exact, keys, least*float64(keys))
	}
	return nil
}

// beaucoupBound checks FlyMon-BeauCoup (Chen et al.) counting distinct
// param values per key against the threshold T.
//
// The solved coupon configuration must fit the bucket width and expect to
// collect within the solver's ±15% (log) of T. The number X of distinct
// values a table needs to collect is a sum of independent geometric
// stages; Cantelli's one-sided Chebyshev inequality bounds
// P(X − E ≥ a) and P(E − X ≥ a) by σ²/(σ²+a²), with σ/E from
// CouponConfig.RelativeStdDev. A key is reported once all d tables
// collected, so a key with n ≥ 2T distinct values is missed with
// probability at most d·σ²/(σ²+(n−E)²) (union bound), and a key with
// n ≤ T/2 is reported with probability at most σ²/(σ²+(E−n)²).
func beaucoupBound(key, param packet.KeySpec) func(c cell) error {
	return func(c cell) error {
		cfg := handle[*algorithms.BeauCoupTask](c.t, c.d).Cfg
		T, E := float64(c.d.task.Spec.Threshold), cfg.ExpectedDraws()
		if cfg.Coupons > c.d.width {
			return fmt.Errorf("%d coupons do not fit %d-bit buckets", cfg.Coupons, c.d.width)
		}
		if math.Abs(math.Log(E/T)) > sketch.CouponTolerance {
			return fmt.Errorf("coupon config %+v expects %.0f distinct values for threshold %.0f", cfg, E, T)
		}
		exact := sketch.NewExactDistinct(key, param)
		for i := range c.w.packets {
			exact.AddPacket(&c.w.packets[i])
		}
		counts := exact.Counts()
		cands := make([]packet.CanonicalKey, 0, len(counts))
		for k := range counts {
			cands = append(cands, k)
		}
		reported := c.rd.reported(cands)
		sigma := cfg.RelativeStdDev() * E
		cantelli := func(a float64) float64 { return sigma * sigma / (sigma*sigma + a*a) }
		var missP, falseP []float64
		misses, falses := 0, 0
		for k, n := range counts {
			switch {
			case float64(n) >= 2*T:
				missP = append(missP, min(1, float64(c.d.task.D)*cantelli(float64(n)-E)))
				if !reported[k] {
					misses++
				}
			case float64(n) <= T/2:
				falseP = append(falseP, cantelli(E-float64(n)))
				if reported[k] {
					falses++
				}
			}
		}
		if len(missP) == 0 {
			return fmt.Errorf("no key reaches 2× the threshold: the row checks nothing")
		}
		if err := atMost("keys at ≥ 2× the threshold missed", misses, missP); err != nil {
			return err
		}
		return atMost("keys at ≤ ½× the threshold reported", falses, falseP)
	}
}

func onesCount(words []uint32) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount32(w)
	}
	return n
}

// bloomBound checks FlyMon-BloomFilter (Bloom; the survey's §3): no
// member is ever missed, and a non-member passes only if its bit is set in
// every row, which for independent positions happens with probability
// Π fillᵢ — the rows' measured fill — checked over 10,000 non-members.
//
// FlyMon's rows are not fully independent: every row's bucket and bit are
// sub-ranges of one 32-bit compressed key, and the sub-ranges overlap. Over
// 200,000 non-members the measured rate runs 2–80% above Π fillᵢ on these
// workloads, inside the 3σ slack of 10,000 probes but not of 200,000.
func bloomBound(c cell) error {
	members := c.w.frequency()
	for k := range members {
		if !c.rd.contains(k) {
			return fmt.Errorf("false negative: a member reads absent")
		}
	}
	fpr := 1.0
	for _, row := range c.rd.registers() {
		fpr *= float64(onesCount(row)) / float64(len(row)*c.d.width)
	}
	rng := rand.New(rand.NewSource(99))
	probes, passed := 0, 0
	for probes < 10_000 {
		p := packet.Packet{SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: 6}
		k := packet.KeyFiveTuple.Extract(&p)
		if _, ok := members[k]; ok {
			continue
		}
		probes++
		if c.rd.contains(k) {
			passed++
		}
	}
	return shareAtMost(fmt.Sprintf("false positives (Π fill = %.4f)", fpr), passed, probes, fpr)
}

// maxIntervalBound states what FlyMon-MaxInterval guarantees. There is no
// unconditional bound: a Bloom false positive makes a new flow subtract a
// colliding flow's arrival (or an empty bucket's 0), and the interval row
// keeps the maximum over colliding flows, so a key that shares a bucket
// can read either side of its truth. What the composition does guarantee,
// and what is checked: a key that shares none of its three buckets with
// another key reads back its exact maximum inter-arrival gap in µs.
func maxIntervalBound(c cell) error {
	h := handle[*algorithms.MaxIntervalTask](c.t, c.d)
	last := map[packet.CanonicalKey]uint64{}
	truth := map[packet.CanonicalKey]uint64{}
	for i := range c.w.packets {
		p := &c.w.packets[i]
		k, now := packet.KeyFiveTuple.Extract(p), p.TimestampNs/1000
		if prev, seen := last[k]; seen {
			truth[k] = max(truth[k], now-prev)
		} else {
			truth[k] = 0
		}
		last[k] = now
	}
	var index [3]map[packet.CanonicalKey]uint32
	var load [3]map[uint32]int
	for r := range index {
		g, u := h.Groups[r], h.Units[r]
		index[r], load[r] = map[packet.CanonicalKey]uint32{}, map[uint32]int{}
		keys := make([]uint32, g.Units())
		for k := range truth {
			keys[u] = g.HashKey(u, k)
			idx := core.Translate(core.FullKey(u).Resolve(keys), h.Rows[r], h.Method)
			index[r][k] = idx
			load[r][idx]++
		}
	}
	isolated, wrong := 0, 0
	for k, v := range truth {
		if load[0][index[0][k]] > 1 || load[1][index[1][k]] > 1 || load[2][index[2][k]] > 1 {
			continue
		}
		isolated++
		if c.rd.estimate(k) != float64(v) {
			wrong++
		}
	}
	if isolated < 100 {
		return fmt.Errorf("only %d keys own all three buckets: the row checks nothing", isolated)
	}
	if wrong > 0 {
		return fmt.Errorf("%d of %d keys that own their buckets read a wrong maximum interval", wrong, isolated)
	}
	return nil
}
