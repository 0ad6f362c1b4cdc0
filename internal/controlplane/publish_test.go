package controlplane

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"flymon/internal/core"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
)

// mutationSpecs returns one task spec per algorithm — all eleven — with a
// seeded filter and memory size, the shapes TestControllerAllAlgorithmsDeployAndQuery
// deploys.
func mutationSpecs(rng *rand.Rand) []TaskSpec {
	specs := []TaskSpec{
		{Key: packet.KeyFiveTuple, Attribute: AttrFrequency},
		{Key: packet.KeyFiveTuple, Attribute: AttrFrequency, Algorithm: AlgSuMaxSum, D: 2},
		{Key: packet.KeyFiveTuple, Attribute: AttrFrequency, Algorithm: AlgMRAC},
		{Key: packet.KeyFiveTuple, Attribute: AttrFrequency, Algorithm: AlgTower},
		{Key: packet.KeyFiveTuple, Attribute: AttrFrequency, Algorithm: AlgCounterBraids},
		{Key: packet.KeyDstIP, Attribute: AttrDistinct,
			Param: ParamSpec{Kind: ParamFlowKey, Key: packet.KeySrcIP}, Threshold: 100},
		{Attribute: AttrDistinct, Param: ParamSpec{Kind: ParamFlowKey, Key: packet.KeyFiveTuple}},
		{Attribute: AttrDistinct, Algorithm: AlgLinearCounting,
			Param: ParamSpec{Kind: ParamFlowKey, Key: packet.KeyFiveTuple}},
		{Attribute: AttrExistence, Param: ParamSpec{Kind: ParamFlowKey, Key: packet.KeyFiveTuple}},
		{Key: packet.KeyIPPair, Attribute: AttrMax, Param: ParamSpec{Kind: ParamQueueLength}},
		{Key: packet.KeyFiveTuple, Attribute: AttrMax, Param: ParamSpec{Kind: ParamPacketInterval}},
	}
	filters := []packet.Filter{packet.MatchAll, srcNet(10), srcNet(11), srcNet(12), {DstPort: 53}}
	for i := range specs {
		specs[i].Filter = filters[rng.Intn(len(filters))]
		specs[i].MemBuckets = 256 << rng.Intn(3)
		if specs[i].Attribute == AttrFrequency && i < 2 && rng.Intn(3) == 0 {
			specs[i].Prob = 0.5 // CMS and SuMax(Sum) take a sampling probability
		}
	}
	return specs
}

func srcNet(top uint32) packet.Filter {
	return packet.Filter{SrcPrefix: packet.Prefix{Value: top << 24, Bits: 8}}
}

// TestIncrementalPublishMatchesCompile is the differential oracle of the
// per-group publish. A seeded schedule of add, remove, resize, freeze, thaw,
// split and RekeyUnit over all eleven algorithms runs on two controllers
// built alike; one republishes only the groups each mutation wrote, the
// other recompiles everything after every step (Republish). After every
// step the incrementally published snapshot must equal a fresh
// Pipeline.Compile() field for field, and after the same frames replay
// through both controllers every register must be bit-identical.
func TestIncrementalPublishMatchesCompile(t *testing.T) {
	seed := int64(40)
	for _, tele := range []bool{false, true} {
		for _, sharded := range []bool{false, true} {
			seed++
			t.Run(fmt.Sprintf("telemetry=%v/sharded=%v", tele, sharded), func(t *testing.T) {
				incrementalMatchesCompile(t, tele, sharded, seed)
			})
		}
	}
}

func incrementalMatchesCompile(t *testing.T, tele, sharded bool, seed int64) {
	const steps = 250
	build := func() *Controller {
		cfg := Config{Groups: 4, SplicedGroups: 1, Buckets: 2048, BitWidth: 32, Workers: 1}
		if sharded {
			cfg.Workers, cfg.ShardedState = 2, true
		}
		if tele {
			cfg.Telemetry = telemetry.NewRegistry()
		}
		c := NewController(cfg)
		t.Cleanup(c.Close)
		return c
	}
	inc, full := build(), build()
	ctrls := [2]*Controller{inc, full}
	rng := rand.New(rand.NewSource(seed))
	keys := []packet.KeySpec{packet.KeyFiveTuple, packet.KeySrcIP, packet.KeyDstIP, packet.KeyIPPair}
	var ts, version uint64
	compared := 0

	for step := 0; step < steps; step++ {
		// One mutation, drawn once and applied to both controllers.
		var ids []int
		for _, task := range inc.Tasks() {
			ids = append(ids, task.ID)
		}
		op := rng.Intn(10)
		if len(ids) == 0 {
			op = 0
		}
		var id int
		if len(ids) > 0 {
			id = ids[rng.Intn(len(ids))]
		}
		specs := mutationSpecs(rng)
		spec := specs[rng.Intn(len(specs))]
		spec.Name = fmt.Sprintf("t%d", step)
		size := 256 << rng.Intn(3)
		group, unit, key := rng.Intn(5), rng.Intn(core.CompressionUnits), keys[rng.Intn(len(keys))]
		var errs [2]error
		for i, c := range ctrls {
			switch op {
			case 0, 1, 2:
				_, errs[i] = c.AddTask(spec)
			case 3:
				errs[i] = c.RemoveTask(id)
			case 4:
				_, errs[i] = c.ResizeTask(id, size)
			case 5:
				errs[i] = c.FreezeTask(id)
			case 6:
				errs[i] = c.ThawTask(id)
			case 7:
				_, _, errs[i] = c.SplitTask(id)
			case 8:
				errs[i] = c.RekeyUnit(group, unit, key)
			default:
				errs[i] = c.ResetTaskCounters(id)
			}
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("step %d op %d: controllers disagree: %v vs %v", step, op, errs[0], errs[1])
		}
		full.Republish()

		// Structure: a snapshot the step published is what a full compile
		// builds. Nothing has run on it yet, so its unsettled counters are
		// zero too. (A step that failed or reset counters published nothing.)
		if v := inc.SnapshotVersion(); v != version {
			version = v
			if got, want := inc.snap.Load(), inc.pipeline.Compile(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d op %d: the incrementally published snapshot differs from Pipeline.Compile()\n%s", step, op, snapDiff(got, want))
			}
			compared++
		}
		ti, tf := inc.Tasks(), full.Tasks()
		if len(ti) != len(tf) {
			t.Fatalf("step %d: %d vs %d tasks", step, len(ti), len(tf))
		}
		sampled := false
		for i := range ti {
			if ti[i].ID != tf[i].ID || ti[i].Fingerprint != tf[i].Fingerprint {
				t.Fatalf("step %d: task %d (%#x) vs %d (%#x)", step, ti[i].ID, ti[i].Fingerprint, tf[i].ID, tf[i].Fingerprint)
			}
			sampled = sampled || (ti[i].Spec.Prob > 0 && ti[i].Spec.Prob < 1)
		}

		// Registers: the same frames through both controllers. The sequential
		// reference always; the frame engine too when its order is the
		// trace's and no coin is flipped (pool workers draw from per-process
		// rng streams, which differ between the two controllers).
		ps := make([]packet.Packet, 200)
		for i := range ps {
			ts += uint64(rng.Intn(5000))
			ps[i] = packet.Packet{
				SrcIP: uint32(10+rng.Intn(3))<<24 | uint32(rng.Intn(64)), DstIP: uint32(rng.Intn(16)),
				SrcPort: uint16(rng.Intn(8)), DstPort: []uint16{53, 80}[rng.Intn(2)], Proto: 6,
				Size: uint32(64 + rng.Intn(1400)), QueueLength: uint32(rng.Intn(100)), TimestampNs: ts,
			}
		}
		for _, c := range ctrls {
			c.ProcessBatch(ps)
			if !sharded && !sampled {
				replayPackets(c, ps)
			}
		}
		for gi := range inc.groups {
			for ci := 0; ci < inc.groups[gi].CMUs(); ci++ {
				a, b := inc.groups[gi].CMU(ci).Register(), full.groups[gi].CMU(ci).Register()
				if !slices.Equal(a.ReadRange(0, a.Size()), b.ReadRange(0, b.Size())) {
					t.Fatalf("step %d op %d: group %d CMU %d registers differ", step, op, gi, ci)
				}
			}
		}
	}
	if compared < steps/2 {
		t.Fatalf("only %d of %d steps published a snapshot", compared, steps)
	}
}

// pipelineState is everything a rejected AddTask must leave as it found it.
type pipelineState struct {
	allocs  [][]BuddyAllocator
	units   [][]string
	rules   [][][]core.Rule
	version uint64
}

func stateOf(c *Controller) pipelineState {
	var s pipelineState
	for gi, g := range c.groups {
		var as []BuddyAllocator
		for _, a := range c.allocs[gi] {
			cp := *a
			cp.free, cp.used = nil, nil
			for o := range a.free {
				cp.free = append(cp.free, slices.Clone(a.free[o]))
				cp.used = append(cp.used, slices.Clone(a.used[o]))
			}
			as = append(as, cp)
		}
		s.allocs = append(s.allocs, as)
		var units []string
		for u := 0; u < g.Units(); u++ {
			units = append(units, g.UnitSpec(u).String())
		}
		s.units = append(s.units, units)
		var cmus [][]core.Rule
		for ci := 0; ci < g.CMUs(); ci++ {
			var rules []core.Rule
			for _, r := range g.CMU(ci).Rules() {
				rules = append(rules, *r)
			}
			cmus = append(cmus, rules)
		}
		s.rules = append(s.rules, cmus)
	}
	s.version = c.SnapshotVersion()
	return s
}

// TestRejectedAddTaskLeavesNoTrace: an AddTask that fails — refused by the
// admission check, or rolled back after the install ran out of compression
// units or TCAM — leaves allocator state, unit configuration, rule lists and
// the snapshot version exactly as they were.
func TestRejectedAddTaskLeavesNoTrace(t *testing.T) {
	dstPort := func(p uint16) packet.Filter { return packet.Filter{DstPort: p} }
	cases := []struct {
		name   string
		cfg    Config
		before []TaskSpec
		spec   TaskSpec
	}{
		{
			name:   "admission: every CMU carries intersecting traffic",
			cfg:    Config{Groups: 1},
			before: []TaskSpec{{Name: "all", Key: packet.KeyFiveTuple, Attribute: AttrFrequency, MemBuckets: 2048}},
			spec:   TaskSpec{Name: "again", Key: packet.KeyFiveTuple, Attribute: AttrFrequency, MemBuckets: 2048},
		},
		{
			// Units 0 and 1 are read; the install reconfigures unit 2 for
			// the BeauCoup key, then finds no unit for its parameter.
			name: "rollback: out of compression units",
			cfg:  Config{Groups: 1},
			before: []TaskSpec{
				{Name: "five", Key: packet.KeyFiveTuple, Attribute: AttrFrequency, MemBuckets: 2048, D: 1, Filter: dstPort(80)},
				{Name: "src", Key: packet.KeySrcIP, Attribute: AttrFrequency, MemBuckets: 2048, D: 1, Filter: dstPort(81)},
			},
			spec: TaskSpec{Name: "bc", Key: packet.KeyIPPair, Attribute: AttrDistinct, D: 1, Filter: dstPort(82),
				Param: ParamSpec{Kind: ParamFlowKey, Key: packet.NewKeySpec(packet.FieldDstPort)}, Threshold: 100, MemBuckets: 2048},
		},
		{
			// BeauCoup's coupon table alone exceeds the preparation budget.
			name: "rollback: TCAM budget",
			cfg:  Config{Groups: 2, TCAMEntriesPerGroup: 8},
			spec: TaskSpec{Name: "bc", Key: packet.KeyDstIP, Attribute: AttrDistinct,
				Param: ParamSpec{Kind: ParamFlowKey, Key: packet.KeySrcIP}, Threshold: 512, MemBuckets: 2048},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewController(tc.cfg)
			defer c.Close()
			for _, s := range tc.before {
				if _, err := c.AddTask(s); err != nil {
					t.Fatal(err)
				}
			}
			if tc.name == "rollback: out of compression units" {
				// Free a unit the next install will reconfigure.
				dst, err := c.AddTask(TaskSpec{Name: "dst", Key: packet.KeyDstIP, Attribute: AttrFrequency,
					MemBuckets: 2048, D: 1, Filter: dstPort(83)})
				if err != nil {
					t.Fatal(err)
				}
				if err := c.RemoveTask(dst.ID); err != nil {
					t.Fatal(err)
				}
			}
			before := stateOf(c)
			if _, err := c.AddTask(tc.spec); err == nil {
				t.Fatal("the task was placed; the case needs it refused")
			}
			if after := stateOf(c); !reflect.DeepEqual(before, after) {
				t.Fatalf("a rejected AddTask changed the pipeline:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
}

// snapDiff names the snapshot fields (and per-group program fields) whose
// printed values differ — the failure message of the structural check. A
// difference DeepEqual sees but printing does not (nil against empty) shows
// as no field.
func snapDiff(a, b *core.Snapshot) string {
	out := ""
	diff := func(name string, x, y reflect.Value) {
		if fx, fy := fmt.Sprintf("%+v", x), fmt.Sprintf("%+v", y); fx != fy {
			out += fmt.Sprintf("%s:\n  incremental %s\n  full        %s\n", name, fx, fy)
		}
	}
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		if name != "progs" || va.Field(i).Len() != vb.Field(i).Len() {
			diff(name, va.Field(i), vb.Field(i))
			continue
		}
		for g := 0; g < va.Field(i).Len(); g++ {
			pa, pb := va.Field(i).Index(g).Elem(), vb.Field(i).Index(g).Elem()
			for j := 0; j < pa.NumField(); j++ {
				diff(fmt.Sprintf("group %d %s", g, pa.Type().Field(j).Name), pa.Field(j), pb.Field(j))
			}
		}
	}
	return out
}
