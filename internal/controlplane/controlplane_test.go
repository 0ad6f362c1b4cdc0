package controlplane

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"flymon/internal/packet"
)

// --- Buddy allocator ---

func TestBuddyAllocFullRegister(t *testing.T) {
	b := NewBuddyAllocator(1024, 32)
	base, got, err := b.Alloc(1024)
	if err != nil || base != 0 || got != 1024 {
		t.Fatalf("whole-register alloc = (%d,%d,%v)", base, got, err)
	}
	if _, _, err := b.Alloc(32); err == nil {
		t.Fatal("full allocator must refuse")
	}
	if err := b.Free(0); err != nil {
		t.Fatal(err)
	}
	if b.FreeBuckets() != 1024 {
		t.Fatal("free must restore capacity")
	}
}

func TestBuddyAllocRoundsUp(t *testing.T) {
	b := NewBuddyAllocator(1024, 32)
	_, got, err := b.Alloc(33)
	if err != nil || got != 64 {
		t.Fatalf("alloc(33) granted %d, want 64", got)
	}
	_, got2, _ := b.Alloc(10) // below min block
	if got2 != 32 {
		t.Fatalf("alloc(10) granted %d, want min block 32", got2)
	}
}

func TestBuddyAllocCoalesces(t *testing.T) {
	b := NewBuddyAllocator(256, 32)
	bases := make([]int, 0, 8)
	for i := 0; i < 8; i++ {
		base, _, err := b.Alloc(32)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, base)
	}
	if b.LargestFree() != 0 {
		t.Fatal("allocator should be exhausted")
	}
	for _, base := range bases {
		if err := b.Free(base); err != nil {
			t.Fatal(err)
		}
	}
	if b.LargestFree() != 256 {
		t.Fatalf("buddies failed to coalesce: largest free %d", b.LargestFree())
	}
}

func TestBuddyAllocFreeValidation(t *testing.T) {
	b := NewBuddyAllocator(256, 32)
	if err := b.Free(0); err == nil {
		t.Fatal("freeing unallocated base must fail")
	}
	base, _, _ := b.Alloc(64)
	if err := b.Free(base); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(base); err == nil {
		t.Fatal("double free must fail")
	}
}

func TestBuddyAllocOversized(t *testing.T) {
	b := NewBuddyAllocator(256, 32)
	if _, _, err := b.Alloc(512); err == nil {
		t.Fatal("oversized request must fail")
	}
	if _, _, err := b.Alloc(0); err == nil {
		t.Fatal("zero request must fail")
	}
}

func TestBuddyAllocationsDisjointProperty(t *testing.T) {
	// Random alloc/free interleavings keep allocations aligned, in-range
	// and pairwise disjoint.
	f := func(ops []uint16) bool {
		b := NewBuddyAllocator(4096, 128)
		type alloc struct{ base, size int }
		live := map[int]alloc{}
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				for base := range live {
					if b.Free(base) != nil {
						return false
					}
					delete(live, base)
					break
				}
				continue
			}
			want := int(op%4000) + 1
			base, got, err := b.Alloc(want)
			if err != nil {
				continue // exhausted is fine
			}
			if got < want && want <= 4096 && got < 128 {
				return false
			}
			if base%got != 0 || base+got > 4096 {
				return false
			}
			for _, a := range live {
				if base < a.base+a.size && a.base < base+got {
					return false // overlap
				}
			}
			live[base] = alloc{base, got}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// mapBuddy is the allocator's former map representation, kept as the
// reference for which base each grant gets: free block bases per order,
// granted base → order.
type mapBuddy struct {
	minBlock int
	free     []map[int]bool
	granted  map[int]int
}

func newMapBuddy(size, minBlock int) *mapBuddy {
	m := &mapBuddy{minBlock: minBlock, granted: map[int]int{}}
	for s := minBlock; s <= size; s <<= 1 {
		m.free = append(m.free, map[int]bool{})
	}
	m.free[len(m.free)-1][0] = true
	return m
}

func (m *mapBuddy) alloc(buckets int) (int, bool) {
	order := 0
	for m.minBlock<<order < buckets {
		order++
	}
	for from := order; from < len(m.free); from++ {
		base := -1
		for b := range m.free[from] {
			if base < 0 || b < base {
				base = b
			}
		}
		if base < 0 {
			continue
		}
		delete(m.free[from], base)
		for o := from; o > order; o-- {
			m.free[o-1][base+m.minBlock<<(o-1)] = true
		}
		m.granted[base] = order
		return base, true
	}
	return 0, false
}

func (m *mapBuddy) release(base int) {
	order := m.granted[base]
	delete(m.granted, base)
	for ; order < len(m.free)-1 && m.free[order][base^m.minBlock<<order]; order++ {
		delete(m.free[order], base^m.minBlock<<order)
		base &^= m.minBlock << order
	}
	m.free[order][base] = true
}

// TestBuddyBasesMatchMapReference: the bitset allocator grants exactly the
// bases the map representation granted — smallest order that fits, smallest
// base within it — so partition placement, and with it every layout
// fingerprint, is unchanged. Admit agrees with Alloc before every request.
func TestBuddyBasesMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		size, minBlock := 1<<(10+rng.Intn(7)), 1<<(2+rng.Intn(5))
		b, ref := NewBuddyAllocator(size, minBlock), newMapBuddy(size, minBlock)
		var live []int
		for op := 0; op < 2000; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				if err := b.Free(live[i]); err != nil {
					t.Fatal(err)
				}
				ref.release(live[i])
				live = append(live[:i], live[i+1:]...)
				continue
			}
			want := 1 + rng.Intn(size/4)
			admitted := b.Admit(want) == nil
			base, _, err := b.Alloc(want)
			refBase, ok := ref.alloc(want)
			if admitted != (err == nil) || ok != (err == nil) || (ok && base != refBase) {
				t.Fatalf("size %d min %d request %d: admit %v, alloc (%d, %v), reference (%d, %v)",
					size, minBlock, want, admitted, base, err, refBase, ok)
			}
			if ok {
				live = append(live, base)
			}
			if b.Allocations() != len(ref.granted) {
				t.Fatalf("%d allocations, reference holds %d", b.Allocations(), len(ref.granted))
			}
		}
	}
}

func TestBuddyInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two size must panic")
		}
	}()
	NewBuddyAllocator(1000, 32)
}

// --- Memory modes ---

func TestMemoryModes(t *testing.T) {
	const min, max = 2048, 65536
	if got := Accurate.PartitionFor(5000, min, max); got != 8192 {
		t.Fatalf("accurate 5000 → %d, want 8192", got)
	}
	if got := Efficient.PartitionFor(5000, min, max); got != 4096 {
		t.Fatalf("efficient 5000 → %d, want 4096 (nearest in log space)", got)
	}
	if got := Efficient.PartitionFor(7000, min, max); got != 8192 {
		t.Fatalf("efficient 7000 → %d, want 8192", got)
	}
	if got := Accurate.PartitionFor(1, min, max); got != min {
		t.Fatal("requests clamp to the minimum partition")
	}
	if got := Accurate.PartitionFor(1<<20, min, max); got != max {
		t.Fatal("requests clamp to the register size")
	}
	if Accurate.String() != "accurate" || Efficient.String() != "efficient" {
		t.Fatal("mode names wrong")
	}
}

func TestAccurateNeverUnderallocatesProperty(t *testing.T) {
	f := func(req uint16) bool {
		got := Accurate.PartitionFor(int(req), 32, 65536)
		return got >= int(req) || got == 65536
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- Spec validation & compilation ---

func validSpec() TaskSpec {
	return TaskSpec{
		Name: "t", Key: packet.KeyFiveTuple,
		Attribute: AttrFrequency, MemBuckets: 1024,
	}
}

func TestTaskSpecValidate(t *testing.T) {
	good := validSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*TaskSpec){
		func(s *TaskSpec) { s.Name = "" },
		func(s *TaskSpec) { s.MemBuckets = 0 },
		func(s *TaskSpec) { s.D = 4 },
		func(s *TaskSpec) { s.Prob = 1.5 },
		func(s *TaskSpec) { s.Prob = -0.5 },
		func(s *TaskSpec) { s.Prob = math.NaN() },
		func(s *TaskSpec) { s.Attribute = AttrDistinct }, // key set but no flow-key param
		func(s *TaskSpec) {
			s.Attribute = AttrExistence // existence needs flow-key param
		},
		func(s *TaskSpec) {
			s.Param = ParamSpec{Kind: ParamFlowKey, Key: packet.KeySrcIP} // frequency can't take one
		},
	}
	for i, mutate := range bad {
		s := validSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d must fail validation", i)
		}
	}
}

// TestAddTaskRejectsNaNProb: a NaN probability is out of range, not an
// always-on task — AddTask refuses it and installs nothing.
func TestAddTaskRejectsNaNProb(t *testing.T) {
	c := NewController(Config{Groups: 3, Buckets: 4096, BitWidth: 32, Workers: 1})
	defer c.Close()
	spec := validSpec()
	spec.Prob = math.NaN()
	if res, err := c.AddTask(spec); err == nil {
		t.Fatalf("AddTask with a NaN probability deployed task %d, want an error", res.ID)
	}
	if n := len(c.Tasks()); n != 0 {
		t.Fatalf("%d tasks installed after the refused add, want 0", n)
	}
}

func TestChooseAlgorithm(t *testing.T) {
	cases := []struct {
		spec TaskSpec
		want Algorithm
	}{
		{TaskSpec{Attribute: AttrFrequency}, AlgCMS},
		{TaskSpec{Attribute: AttrDistinct, Key: packet.KeyDstIP,
			Param: ParamSpec{Kind: ParamFlowKey, Key: packet.KeySrcIP}}, AlgBeauCoup},
		{TaskSpec{Attribute: AttrDistinct,
			Param: ParamSpec{Kind: ParamFlowKey, Key: packet.KeyFiveTuple}}, AlgHLL},
		{TaskSpec{Attribute: AttrExistence,
			Param: ParamSpec{Kind: ParamFlowKey, Key: packet.KeyFiveTuple}}, AlgBloom},
		{TaskSpec{Attribute: AttrMax, Param: ParamSpec{Kind: ParamQueueLength}}, AlgSuMaxMax},
		{TaskSpec{Attribute: AttrMax, Param: ParamSpec{Kind: ParamPacketInterval}}, AlgMaxInterval},
		{TaskSpec{Attribute: AttrFrequency, Algorithm: AlgTower}, AlgTower}, // pin wins
	}
	for i, c := range cases {
		if got := c.spec.ChooseAlgorithm(); got != c.want {
			t.Errorf("case %d: ChooseAlgorithm = %s, want %s", i, got, c.want)
		}
	}
}

func TestAlgorithmGroupsNeeded(t *testing.T) {
	if AlgCMS.GroupsNeeded(3) != 1 {
		t.Error("CMS fits one group")
	}
	if AlgSuMaxSum.GroupsNeeded(3) != 3 {
		t.Error("SuMax(Sum) needs d groups (Table 3)")
	}
	if AlgMaxInterval.GroupsNeeded(3) != 3 {
		t.Error("MaxInterval needs 3 groups")
	}
}

// --- Delay model ---

func TestDelayModel(t *testing.T) {
	m := DefaultDelayModel()
	// One hash mask alone: 16 ms.
	d := m.Delay(RuleCount{HashMasks: 1})
	if d != 16*time.Millisecond {
		t.Fatalf("mask delay = %v", d)
	}
	// 8 common rules = one batch = 3 ms.
	if d := m.Delay(RuleCount{Common: 8}); d != 3*time.Millisecond {
		t.Fatalf("one-batch delay = %v", d)
	}
	// 9 rules = two batches.
	if d := m.Delay(RuleCount{Common: 9}); d != 6*time.Millisecond {
		t.Fatalf("two-batch delay = %v", d)
	}
	if (RuleCount{Common: 2, TCAMEntries: 3, HashMasks: 1}).Total() != 6 {
		t.Fatal("Total wrong")
	}
}

// --- Controller ---

func newTestController(groups int) *Controller {
	return NewController(Config{Groups: groups, Buckets: 65536, BitWidth: 32})
}

func TestControllerAddRemoveTask(t *testing.T) {
	c := newTestController(1)
	task, err := c.AddTask(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if task.ID != 1 || task.Algorithm != AlgCMS || task.D != 3 {
		t.Fatalf("task = %+v", task)
	}
	if len(c.Tasks()) != 1 {
		t.Fatal("task list wrong")
	}
	if task.Delay <= 0 {
		t.Fatal("deployment delay must be modeled")
	}
	if err := c.RemoveTask(task.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveTask(task.ID); err == nil {
		t.Fatal("double remove must fail")
	}
	free := c.FreeBuckets()
	for _, cmu := range free[0] {
		if cmu != 65536 {
			t.Fatal("removal must release all memory")
		}
	}
}

func TestControllerEstimatePath(t *testing.T) {
	c := newTestController(1)
	task, err := c.AddTask(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	p := packet.Packet{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6, Proto: 6}
	for i := 0; i < 25; i++ {
		c.Process(&p)
	}
	got, err := c.EstimateKey(task.ID, packet.KeyFiveTuple.Extract(&p))
	if err != nil {
		t.Fatal(err)
	}
	if got != 25 {
		t.Fatalf("estimate = %v, want 25", got)
	}
}

func TestControllerResizePreservesID(t *testing.T) {
	c := newTestController(2)
	task, _ := c.AddTask(validSpec())
	p := packet.Packet{SrcIP: 1, Proto: 6}
	c.Process(&p)
	old, err := c.ResizeTask(task.ID, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if len(old) == 0 {
		t.Fatal("resize must return the frozen registers")
	}
	nt, err := c.Task(task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if nt.Buckets != 8192 {
		t.Fatalf("resized buckets = %d", nt.Buckets)
	}
	// Counters restart after the move.
	if got, _ := c.EstimateKey(task.ID, packet.KeyFiveTuple.Extract(&p)); got != 0 {
		t.Fatalf("resized task should restart at 0, got %v", got)
	}
	// A second task must get ID 2, not reuse the juggled counter.
	second, err := c.AddTask(TaskSpec{Name: "second", Key: packet.KeyDstIP,
		Attribute: AttrFrequency, MemBuckets: 2048,
		Filter: packet.Filter{DstPort: 53}})
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != 2 {
		t.Fatalf("second task ID = %d, want 2", second.ID)
	}
}

func TestControllerGreedyPlacementReusesKeys(t *testing.T) {
	c := newTestController(3)
	// First task keyed by DstIP lands somewhere and configures a unit.
	t1, err := c.AddTask(TaskSpec{Name: "a", Key: packet.KeyDstIP,
		Attribute: AttrFrequency, MemBuckets: 2048,
		Filter: packet.Filter{DstPort: 80}})
	if err != nil {
		t.Fatal(err)
	}
	// Second DstIP task with a disjoint filter must co-locate (greedy key
	// reuse) rather than claim a fresh group.
	t2, err := c.AddTask(TaskSpec{Name: "b", Key: packet.KeyDstIP,
		Attribute: AttrFrequency, MemBuckets: 2048,
		Filter: packet.Filter{DstPort: 443}})
	if err != nil {
		t.Fatal(err)
	}
	if t1.Groups[0] != t2.Groups[0] {
		t.Fatalf("greedy placement failed: %v vs %v", t1.Groups, t2.Groups)
	}
	// The reuse must also be visible in the delay: t1 paid for the DstIP
	// hash-mask rule, t2 did not.
	if t2.Delay >= t1.Delay {
		t.Fatalf("reusing task's delay %v should undercut the first deployment's %v", t2.Delay, t1.Delay)
	}
}

func TestControllerIntersectingTasksSpread(t *testing.T) {
	c := newTestController(2)
	if _, err := c.AddTask(validSpec()); err != nil {
		t.Fatal(err)
	}
	// Same traffic (match-all), same key: cannot share CMUs → group 1.
	t2, err := c.AddTask(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if t2.Groups[0] != 1 {
		t.Fatalf("intersecting task placed on group %d, want 1", t2.Groups[0])
	}
	// A third match-all task has nowhere to go.
	if _, err := c.AddTask(validSpec()); err == nil {
		t.Fatal("exhausted pipeline must reject")
	}
}

func TestControllerNinetySixTasksPerGroup(t *testing.T) {
	// The paper's headline: one CMU Group runs up to 96 isolated tasks
	// (32 partitions × 3 CMUs). Give each task a disjoint dst-port filter
	// and the minimum partition.
	c := newTestController(1)
	for i := 0; i < 96; i++ {
		spec := TaskSpec{
			Name:       fmt.Sprintf("task-%d", i),
			Key:        packet.KeyFiveTuple,
			Attribute:  AttrFrequency,
			MemBuckets: 65536 / 32,
			D:          1,
			Filter:     packet.Filter{DstPort: uint16(i + 1)},
		}
		if _, err := c.AddTask(spec); err != nil {
			t.Fatalf("task %d failed: %v", i, err)
		}
	}
	if got := len(c.Tasks()); got != 96 {
		t.Fatalf("deployed %d tasks, want 96", got)
	}
	// The 97th must fail: memory exhausted.
	spec := TaskSpec{Name: "overflow", Key: packet.KeyFiveTuple,
		Attribute: AttrFrequency, MemBuckets: 2048, D: 1,
		Filter: packet.Filter{DstPort: 999}}
	if _, err := c.AddTask(spec); err == nil {
		t.Fatal("97th task must be rejected")
	}
	// Every task is isolated: feed one packet per filter and check only
	// its task counts it.
	for i := 0; i < 96; i += 13 {
		p := packet.Packet{SrcIP: 5, DstIP: 6, SrcPort: 7, DstPort: uint16(i + 1), Proto: 6}
		c.Process(&p)
		got, err := c.EstimateKey(i+1, packet.KeyFiveTuple.Extract(&p))
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Fatalf("task %d estimate = %v, want 1", i+1, got)
		}
	}
}

func TestControllerQueryDispatchErrors(t *testing.T) {
	c := newTestController(1)
	task, _ := c.AddTask(validSpec())
	if _, err := c.Cardinality(task.ID); err == nil {
		t.Error("cardinality query on a frequency task must fail")
	}
	if _, err := c.Contains(task.ID, packet.CanonicalKey{}); err == nil {
		t.Error("contains query on a frequency task must fail")
	}
	if _, _, err := c.Distribution(task.ID); err == nil {
		t.Error("distribution query on a CMS task must fail")
	}
	if _, err := c.EstimateKey(999, packet.CanonicalKey{}); !errors.Is(err, ErrNoTask) {
		t.Errorf("estimate on an unknown task = %v, want ErrNoTask", err)
	}
	if err := c.RemoveTask(999); !errors.Is(err, ErrNoTask) {
		t.Errorf("remove of an unknown task = %v, want ErrNoTask", err)
	}
}

func TestControllerAllAlgorithmsDeployAndQuery(t *testing.T) {
	specs := map[Algorithm]TaskSpec{
		AlgCMS: {Name: "cms", Key: packet.KeyFiveTuple, Attribute: AttrFrequency, MemBuckets: 4096},
		AlgSuMaxSum: {Name: "sumax", Key: packet.KeyFiveTuple, Attribute: AttrFrequency,
			MemBuckets: 4096, Algorithm: AlgSuMaxSum},
		AlgMRAC: {Name: "mrac", Key: packet.KeyFiveTuple, Attribute: AttrFrequency,
			MemBuckets: 4096, Algorithm: AlgMRAC},
		AlgTower: {Name: "tower", Key: packet.KeyFiveTuple, Attribute: AttrFrequency,
			MemBuckets: 4096, Algorithm: AlgTower},
		AlgCounterBraids: {Name: "cb", Key: packet.KeyFiveTuple, Attribute: AttrFrequency,
			MemBuckets: 4096, Algorithm: AlgCounterBraids},
		AlgBeauCoup: {Name: "bc", Key: packet.KeyDstIP, Attribute: AttrDistinct,
			Param:     ParamSpec{Kind: ParamFlowKey, Key: packet.KeySrcIP},
			Threshold: 100, MemBuckets: 4096},
		AlgHLL: {Name: "hll", Attribute: AttrDistinct,
			Param: ParamSpec{Kind: ParamFlowKey, Key: packet.KeyFiveTuple}, MemBuckets: 4096},
		AlgLinearCounting: {Name: "lc", Attribute: AttrDistinct,
			Param:      ParamSpec{Kind: ParamFlowKey, Key: packet.KeyFiveTuple},
			MemBuckets: 4096, Algorithm: AlgLinearCounting},
		AlgBloom: {Name: "bloom", Attribute: AttrExistence,
			Param: ParamSpec{Kind: ParamFlowKey, Key: packet.KeyFiveTuple}, MemBuckets: 4096},
		AlgSuMaxMax: {Name: "smm", Key: packet.KeyIPPair, Attribute: AttrMax,
			Param: ParamSpec{Kind: ParamQueueLength}, MemBuckets: 4096},
		AlgMaxInterval: {Name: "mi", Key: packet.KeyFiveTuple, Attribute: AttrMax,
			Param: ParamSpec{Kind: ParamPacketInterval}, MemBuckets: 4096},
	}
	for alg, spec := range specs {
		c := newTestController(3)
		task, err := c.AddTask(spec)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if task.Algorithm != alg {
			t.Fatalf("spec compiled to %s, want %s", task.Algorithm, alg)
		}
		// The same spec on an identically configured controller lays out
		// identically, whatever the algorithm.
		twin, err := newTestController(3).AddTask(spec)
		if err != nil || task.Fingerprint == 0 || twin.Fingerprint != task.Fingerprint {
			t.Fatalf("%s: fingerprints %#x vs twin %#x (%v)", alg, task.Fingerprint, twin.Fingerprint, err)
		}
		p := packet.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6, TimestampNs: 1000}
		c.Process(&p)
		p.TimestampNs = 2_000_000
		c.Process(&p)
		// Every algorithm must answer its own query kind.
		switch alg {
		case AlgHLL, AlgLinearCounting:
			if _, err := c.Cardinality(task.ID); err != nil {
				t.Fatalf("%s cardinality: %v", alg, err)
			}
		case AlgBloom:
			ok, err := c.Contains(task.ID, packet.KeyFiveTuple.Extract(&p))
			if err != nil || !ok {
				t.Fatalf("%s contains = %v, %v", alg, ok, err)
			}
		case AlgMRAC:
			if _, _, err := c.Distribution(task.ID); err != nil {
				t.Fatalf("%s distribution: %v", alg, err)
			}
		case AlgBeauCoup:
			if _, err := c.EstimateKey(task.ID, packet.KeyDstIP.Extract(&p)); err != nil {
				t.Fatalf("%s estimate: %v", alg, err)
			}
		default:
			got, err := c.EstimateKey(task.ID, taskKeyOf(spec).Extract(&p))
			if err != nil {
				t.Fatalf("%s estimate: %v", alg, err)
			}
			if alg == AlgCMS || alg == AlgSuMaxSum || alg == AlgTower || alg == AlgCounterBraids {
				if got != 2 {
					t.Fatalf("%s estimate = %v, want 2", alg, got)
				}
			}
		}
		if err := c.RemoveTask(task.ID); err != nil {
			t.Fatalf("%s remove: %v", alg, err)
		}
	}
}

func taskKeyOf(s TaskSpec) packet.KeySpec {
	if len(s.Key.Parts) > 0 {
		return s.Key
	}
	return s.Param.Key
}

func TestControllerResetTaskCounters(t *testing.T) {
	c := newTestController(1)
	task, _ := c.AddTask(validSpec())
	p := packet.Packet{SrcIP: 3, Proto: 6}
	c.Process(&p)
	if err := c.ResetTaskCounters(task.ID); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.EstimateKey(task.ID, packet.KeyFiveTuple.Extract(&p)); got != 0 {
		t.Fatalf("post-reset estimate = %v", got)
	}
	if err := c.ResetTaskCounters(999); err == nil {
		t.Fatal("reset of unknown task must fail")
	}
}

func TestControllerProbabilisticSpec(t *testing.T) {
	c := newTestController(1)
	spec := validSpec()
	spec.Prob = 0.5
	task, err := c.AddTask(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := packet.Packet{SrcIP: 4, Proto: 6}
	const n = 10_000
	for i := 0; i < n; i++ {
		c.Process(&p)
	}
	got, _ := c.EstimateKey(task.ID, packet.KeyFiveTuple.Extract(&p))
	if got < n*0.4 || got > n*0.6 {
		t.Fatalf("p=0.5 task counted %v of %d", got, n)
	}
}

func TestControllerErrorMessagesName(t *testing.T) {
	c := newTestController(1)
	spec := validSpec()
	spec.Algorithm = AlgSuMaxSum
	spec.D = 3 // needs 3 groups, pipeline has 1
	_, err := c.AddTask(spec)
	if err == nil || !strings.Contains(err.Error(), "needs 3 groups") {
		t.Fatalf("placement error unhelpful: %v", err)
	}
}

func TestControllerSplitTask(t *testing.T) {
	c := newTestController(3)
	spec := TaskSpec{
		Name: "heavy", Key: packet.KeyFiveTuple, Attribute: AttrFrequency,
		MemBuckets: 2048,
		Filter:     packet.Filter{SrcPrefix: packet.Prefix{Value: packet.IPv4(10, 0, 0, 0), Bits: 8}},
	}
	task, err := c.AddTask(spec)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := c.SplitTask(task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Spec.Filter.SrcPrefix.Bits != 9 || hi.Spec.Filter.SrcPrefix.Bits != 9 {
		t.Fatalf("subtask prefixes = /%d and /%d, want /9",
			lo.Spec.Filter.SrcPrefix.Bits, hi.Spec.Filter.SrcPrefix.Bits)
	}
	if lo.Spec.Filter.Intersects(hi.Spec.Filter) {
		t.Fatal("subtask filters must be disjoint")
	}
	if _, err := c.Task(task.ID); err == nil {
		t.Fatal("original task must be gone")
	}
	// Each half counts only its own traffic.
	pLo := packet.Packet{SrcIP: packet.IPv4(10, 1, 1, 1), Proto: 6}
	pHi := packet.Packet{SrcIP: packet.IPv4(10, 200, 1, 1), Proto: 6}
	c.Process(&pLo)
	c.Process(&pHi)
	vLo, _ := c.EstimateKey(lo.ID, packet.KeyFiveTuple.Extract(&pLo))
	vHi, _ := c.EstimateKey(hi.ID, packet.KeyFiveTuple.Extract(&pHi))
	xLo, _ := c.EstimateKey(lo.ID, packet.KeyFiveTuple.Extract(&pHi))
	if vLo != 1 || vHi != 1 || xLo != 0 {
		t.Fatalf("split accounting wrong: lo=%v hi=%v cross=%v", vLo, vHi, xLo)
	}
	// A /32 filter cannot split further.
	host, err := c.AddTask(TaskSpec{
		Name: "host", Key: packet.KeyFiveTuple, Attribute: AttrFrequency,
		MemBuckets: 2048,
		Filter:     packet.Filter{SrcPrefix: packet.Prefix{Value: 1, Bits: 32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SplitTask(host.ID); err == nil {
		t.Fatal("host-filter task must refuse to split")
	}
}

func TestControllerEfficientMode(t *testing.T) {
	c := NewController(Config{Groups: 1, Buckets: 65536, BitWidth: 32, Mode: Efficient})
	// 5000 requested: efficient grants the nearer 4096, not 8192.
	task, err := c.AddTask(TaskSpec{Name: "e", Key: packet.KeyFiveTuple,
		Attribute: AttrFrequency, MemBuckets: 5000, D: 3})
	if err != nil {
		t.Fatal(err)
	}
	if task.Buckets != 4096 {
		t.Fatalf("efficient mode granted %d, want 4096", task.Buckets)
	}
	c2 := NewController(Config{Groups: 1, Buckets: 65536, BitWidth: 32, Mode: Accurate})
	task2, err := c2.AddTask(TaskSpec{Name: "a", Key: packet.KeyFiveTuple,
		Attribute: AttrFrequency, MemBuckets: 5000, D: 3})
	if err != nil {
		t.Fatal(err)
	}
	if task2.Buckets != 8192 {
		t.Fatalf("accurate mode granted %d, want 8192", task2.Buckets)
	}
}

func TestControllerCrossTaskIsolation(t *testing.T) {
	// Two tasks with disjoint port filters on one group: processing one
	// task's traffic must never perturb the other's partition — the
	// isolation behind the 96-task claim.
	c := newTestController(1)
	t80, _ := c.AddTask(TaskSpec{Name: "p80", Key: packet.KeyFiveTuple,
		Attribute: AttrFrequency, MemBuckets: 2048, D: 3,
		Filter: packet.Filter{DstPort: 80}})
	t443, _ := c.AddTask(TaskSpec{Name: "p443", Key: packet.KeyFiveTuple,
		Attribute: AttrFrequency, MemBuckets: 2048, D: 3,
		Filter: packet.Filter{DstPort: 443}})
	for i := 0; i < 2000; i++ {
		p := packet.Packet{SrcIP: uint32(i), DstIP: uint32(i * 3), DstPort: 80, Proto: 6}
		c.Process(&p)
	}
	rows, err := c.ReadRegisters(t443.ID)
	if err != nil {
		t.Fatal(err)
	}
	for ri, row := range rows {
		for bi, v := range row {
			if v != 0 {
				t.Fatalf("task %d row %d bucket %d = %d; foreign traffic leaked", t443.ID, ri, bi, v)
			}
		}
	}
	// CMS may overestimate under collisions but never undercount.
	if v, _ := c.EstimateKey(t80.ID, packet.KeyFiveTuple.Extract(&packet.Packet{SrcIP: 1, DstIP: 3, DstPort: 80, Proto: 6})); v < 1 {
		t.Fatalf("t80 lost its own traffic: %v", v)
	}
}

func TestControllerResourceReport(t *testing.T) {
	c := newTestController(2)
	_, err := c.AddTask(TaskSpec{Name: "a", Key: packet.KeyDstIP,
		Attribute: AttrFrequency, MemBuckets: 2048, D: 3,
		Filter: packet.Filter{DstPort: 80}})
	if err != nil {
		t.Fatal(err)
	}
	reports := c.ResourceReport()
	if len(reports) != 2 {
		t.Fatalf("report groups = %d", len(reports))
	}
	g0 := reports[0]
	if g0.Rules != 3 {
		t.Fatalf("group 0 rules = %d, want 3", g0.Rules)
	}
	if len(g0.Tasks) != 1 || g0.Tasks[0] != 1 {
		t.Fatalf("group 0 tasks = %v", g0.Tasks)
	}
	// Unit 0 is the bootstrap 5-tuple; unit 1 was configured for DstIP.
	if g0.Keys[0] != "SrcIP-DstIP-SrcPort-DstPort-Proto" || g0.Keys[1] != "DstIP" {
		t.Fatalf("group 0 keys = %v", g0.Keys)
	}
	// 2048-bucket partitions on a 64K register = 32 partitions → 31
	// translation entries per rule.
	if g0.TCAMEntries != 3*31 {
		t.Fatalf("group 0 TCAM entries = %d, want 93", g0.TCAMEntries)
	}
	// Group 1 is untouched.
	if reports[1].Rules != 0 || reports[1].TCAMEntries != 0 {
		t.Fatalf("group 1 should be idle: %+v", reports[1])
	}
}

func TestControllerTCAMBudget(t *testing.T) {
	// With a tight TCAM budget, a deployment whose address translation
	// would overload the preparation stage is rejected cleanly.
	c := NewController(Config{Groups: 1, Buckets: 65536, BitWidth: 32,
		TCAMEntriesPerGroup: 100})
	// One 2048-bucket d=3 task: 3 × 31 = 93 entries — fits.
	if _, err := c.AddTask(TaskSpec{Name: "fits", Key: packet.KeyFiveTuple,
		Attribute: AttrFrequency, MemBuckets: 2048, D: 3,
		Filter: packet.Filter{DstPort: 1}}); err != nil {
		t.Fatal(err)
	}
	// A second such task would double the load past 100 entries.
	_, err := c.AddTask(TaskSpec{Name: "overflows", Key: packet.KeyFiveTuple,
		Attribute: AttrFrequency, MemBuckets: 2048, D: 3,
		Filter: packet.Filter{DstPort: 2}})
	if err == nil || !strings.Contains(err.Error(), "TCAM") {
		t.Fatalf("TCAM-overloading task must be rejected, got %v", err)
	}
	// Rejection must leave no residue: memory fully restored, rules gone.
	if got := len(c.Tasks()); got != 1 {
		t.Fatalf("tasks after rejection = %d", got)
	}
	reports := c.ResourceReport()
	if reports[0].Rules != 3 {
		t.Fatalf("rules after rejection = %d, want 3", reports[0].Rules)
	}
	// Half-register tasks need only one translation entry: still
	// deployable under the tight budget.
	if _, err := c.AddTask(TaskSpec{Name: "big", Key: packet.KeyDstIP,
		Attribute: AttrFrequency, MemBuckets: 32768, D: 1,
		Filter: packet.Filter{DstPort: 3}}); err != nil {
		t.Fatalf("near-translation-free task should fit: %v", err)
	}
}

func TestControllerSplicedGroupOverflow(t *testing.T) {
	// One regular group + one Appendix-E spliced group: when the regular
	// group's traffic slice is taken, a second match-all task overflows
	// onto the spliced group — and its packets recirculate.
	c := NewController(Config{Groups: 1, SplicedGroups: 1, Buckets: 65536, BitWidth: 32})
	first, err := c.AddTask(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.AddTask(validSpec())
	if err != nil {
		t.Fatalf("spliced overflow failed: %v", err)
	}
	if second.Groups[0] != 1 {
		t.Fatalf("second task on group %d, want spliced group 1", second.Groups[0])
	}
	p := packet.Packet{SrcIP: 3, Proto: 6}
	for i := 0; i < 10; i++ {
		c.Process(&p)
	}
	// Both tasks measured every packet; the spliced task's packets were
	// mirrored (100% of matching traffic, Appendix E).
	for _, id := range []int{first.ID, second.ID} {
		if v, _ := c.EstimateKey(id, packet.KeyFiveTuple.Extract(&p)); v != 10 {
			t.Fatalf("task %d counted %v, want 10", id, v)
		}
	}
	if rec := c.Pipeline().Recirculated(); rec != 10 {
		t.Fatalf("recirculated = %d, want 10", rec)
	}
	// Multi-group tasks must never be placed across the recirculation
	// boundary.
	s := validSpec()
	s.Algorithm = AlgSuMaxSum
	s.D = 2
	if _, err := c.AddTask(s); err == nil {
		t.Fatal("multi-group task must not span into spliced groups")
	}
	// Removing the spliced task stops recirculation.
	if err := c.RemoveTask(second.ID); err != nil {
		t.Fatal(err)
	}
	c.Process(&p)
	if rec := c.Pipeline().Recirculated(); rec != 10 {
		t.Fatalf("recirculation continued after removal: %d", rec)
	}
}

func TestControllerSplicedGroupsClamped(t *testing.T) {
	c := NewController(Config{Groups: 1, SplicedGroups: 99, Buckets: 65536, BitWidth: 32})
	if got := c.Pipeline().SplicedGroups(); got != 3 {
		t.Fatalf("spliced groups = %d, want clamped to 3 (Appendix E bound)", got)
	}
	if got := len(c.ResourceReport()); got != 4 {
		t.Fatalf("report groups = %d, want 1+3", got)
	}
}

func TestRandomizedTaskDeploymentNeverUndercounts(t *testing.T) {
	// System-level property: any mix of randomly parameterized frequency
	// tasks with disjoint port filters deploys cleanly (or reports a clean
	// error), counts its own traffic, and never undercounts.
	f := func(seeds []uint16) bool {
		c := NewController(Config{Groups: 3, Buckets: 65536, BitWidth: 32})
		type live struct {
			id   int
			port uint16
		}
		var tasks []live
		for i, s := range seeds {
			if i >= 12 {
				break
			}
			port := uint16(i + 1)
			spec := TaskSpec{
				Name:       fmt.Sprintf("r%d", i),
				Key:        packet.KeyFiveTuple,
				Attribute:  AttrFrequency,
				MemBuckets: 1 << (11 + int(s)%4), // 2K..16K
				D:          1 + int(s)%3,
				Filter:     packet.Filter{DstPort: port},
			}
			task, err := c.AddTask(spec)
			if err != nil {
				continue // resource exhaustion is a legal outcome
			}
			tasks = append(tasks, live{task.ID, port})
		}
		// Feed each live task a known number of packets.
		truth := map[int]uint64{}
		for i, lt := range tasks {
			n := uint64(1 + i*3)
			p := packet.Packet{SrcIP: uint32(1000 + i), DstPort: lt.port, Proto: 6}
			for j := uint64(0); j < n; j++ {
				c.Process(&p)
			}
			truth[lt.id] = n
		}
		for i, lt := range tasks {
			p := packet.Packet{SrcIP: uint32(1000 + i), DstPort: lt.port, Proto: 6}
			got, err := c.EstimateKey(lt.id, packet.KeyFiveTuple.Extract(&p))
			if err != nil {
				return false
			}
			if uint64(got) < truth[lt.id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
