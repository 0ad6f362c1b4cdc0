package controlplane_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"flymon/internal/controlplane"
	"flymon/internal/dataplane"
	"flymon/internal/epoch"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
)

func srcSlash8(top uint32) packet.Filter {
	return packet.Filter{SrcPrefix: packet.Prefix{Value: top << 24, Bits: 8}}
}

// TestFreeMemoryIsZero is the reclamation invariant as a property: under
// seeded random add / resize / split / freeze / thaw / remove / Rotate
// sequences, with every packet entry point replaying traffic the churned
// tasks match, every bucket and lane entry outside a granted partition ends
// zero, the untouched task's rows are exact, and FreeBuckets agrees with the
// grants. Run under -race it is also the proof that the plain bulk clear of
// a reclaimed partition never overlaps a reader: a clear racing a stale
// snapshot's CAS is exactly what the detector reports.
func TestFreeMemoryIsZero(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, sharded := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/sharded=%v", workers, sharded), func(t *testing.T) {
				freeMemoryIsZero(t, workers, sharded, int64(24+workers))
			})
		}
	}
}

func freeMemoryIsZero(t *testing.T, workers int, sharded bool, seed int64) {
	const (
		stableNet, churnNet, epochNet = 10, 11, 12
		segFrames, segs, ops          = 1500, 4, 300
	)
	c := controlplane.NewController(controlplane.Config{
		Groups: 4, Buckets: 4096, BitWidth: 32, Workers: workers, ShardedState: sharded,
	})
	defer c.Close()
	freq := func(name string, f packet.Filter, buckets, d int) controlplane.TaskSpec {
		return controlplane.TaskSpec{Name: name, Filter: f, Key: packet.KeyFiveTuple,
			Attribute: controlplane.AttrFrequency, MemBuckets: buckets, D: d}
	}
	stable, err := c.AddTask(freq("stable", srcSlash8(stableNet), 1024, 3))
	if err != nil {
		t.Fatal(err)
	}
	rot, err := epoch.NewRotator(c, freq("epoch", srcSlash8(epochNet), 512, 3))
	if err != nil {
		t.Fatal(err)
	}

	// Traffic: a third of the packets each for the stable task, the churned
	// tasks and the rotating task.
	rng := rand.New(rand.NewSource(seed))
	type segment struct {
		ps     []packet.Packet
		frames *mmtrace.Trace
		stable uint64
	}
	traffic := make([]segment, segs)
	for s := range traffic {
		seg := &traffic[s]
		seg.ps = make([]packet.Packet, segFrames)
		for i := range seg.ps {
			net := uint32(stableNet + rng.Intn(3))
			seg.ps[i] = packet.Packet{
				SrcIP: net<<24 | uint32(rng.Intn(1<<24)), DstIP: uint32(rng.Intn(64)),
				SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 9, Proto: 6,
			}
			if net == stableNet {
				seg.stable++
			}
		}
		seg.frames = mmtrace.FromPackets(seg.ps)
	}

	var churnDone atomic.Bool
	var stableSeen uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // data plane: the pool, the single-packet path and the sequential reference
		defer wg.Done()
		for i := 0; !churnDone.Load() || i < segs; i++ {
			seg := &traffic[i%segs]
			c.ReplayTrace(seg.frames)
			c.ProcessBatch(seg.ps)
			for j := range seg.ps[:32] {
				c.Process(&seg.ps[j])
				if seg.ps[j].SrcIP>>24 == stableNet {
					stableSeen++
				}
			}
			stableSeen += 2 * seg.stable
		}
	}()

	// Control plane: seeded churn on tasks the traffic matches.
	sizes := []int{256, 512, 1024, 2048}
	added := 0
	for i := 0; i < ops; i++ {
		var live []*controlplane.Task
		for _, task := range c.Tasks() {
			if strings.HasPrefix(task.Spec.Name, "churn") {
				live = append(live, task)
			}
		}
		op := rng.Intn(7)
		if len(live) == 0 || (op == 0 && len(live) < 4) {
			// Out of resources is a legal answer; the next op frees some.
			if _, err := c.AddTask(freq(fmt.Sprintf("churn%d", i), srcSlash8(churnNet),
				sizes[rng.Intn(3)], 1+rng.Intn(3))); err == nil {
				added++
			}
			continue
		}
		id := live[rng.Intn(len(live))].ID
		switch op {
		case 1:
			_, _ = c.ResizeTask(id, sizes[rng.Intn(len(sizes))]) // a size that does not fit restores the task
		case 2:
			_, _, _ = c.SplitTask(id) // may run out of room for the second half
		case 3:
			if err := c.FreezeTask(id); err != nil {
				t.Errorf("freeze %d: %v", id, err)
			}
		case 4:
			_ = c.ThawTask(id) // refused when a later task now covers the traffic
		case 5:
			if err := c.RemoveTask(id); err != nil {
				t.Errorf("remove %d: %v", id, err)
			}
		default:
			_, _ = rot.Rotate()
		}
	}
	churnDone.Store(true)
	wg.Wait()
	if added == 0 {
		t.Fatal("the schedule never deployed a churned task")
	}

	// Quiescent. Grants, from the rules that own them.
	pl := c.Pipeline()
	granted := make([][][]bool, pl.Groups())
	grantedBuckets := make([][]int, pl.Groups())
	for g := range granted {
		granted[g] = make([][]bool, pl.Group(g).CMUs())
		grantedBuckets[g] = make([]int, pl.Group(g).CMUs())
		for ci := range granted[g] {
			granted[g][ci] = make([]bool, pl.Group(g).CMU(ci).Register().Size())
		}
	}
	for _, task := range c.Tasks() {
		for _, loc := range pl.Locate(task.ID) {
			g, mem := loc.Group.ID(), loc.Rule.Mem
			grantedBuckets[g][loc.CMU] += mem.Buckets
			for i := mem.Base; i < mem.Base+mem.Buckets; i++ {
				granted[g][loc.CMU][i] = true
			}
		}
	}
	free := c.FreeBuckets()
	for g := range granted {
		for ci, mask := range granted[g] {
			reg := pl.Group(g).CMU(ci).Register()
			if want := reg.Size() - grantedBuckets[g][ci]; free[g][ci] != want {
				t.Errorf("group %d CMU %d: FreeBuckets %d, rules grant all but %d", g, ci, free[g][ci], want)
			}
			for i, owned := range mask {
				// OR across the base bucket and every lane: zero iff all are.
				if v := reg.ReadMerged(dataplane.OpAndOr, uint32(i)); !owned && v != 0 {
					t.Fatalf("group %d CMU %d bucket %d is free but holds %#x (base or a lane)", g, ci, i, v)
				}
			}
		}
	}
	rows, err := c.ReadRegisters(stable.ID)
	if err != nil {
		t.Fatal(err)
	}
	for r, row := range rows {
		var mass uint64
		for _, v := range row {
			mass += uint64(v)
		}
		if mass != stableSeen {
			t.Fatalf("stable task row %d mass %d, want %d: reconfiguration disturbed a co-resident task", r, mass, stableSeen)
		}
	}
}
