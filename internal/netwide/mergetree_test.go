package netwide

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"flymon/internal/telemetry"
	"flymon/internal/trace"
)

var allMergeOps = []MergeOp{MergeAdd, MergeMax, MergeOr, MergeXor}

// randomLeaves builds n switch readouts with a shared geometry. Values
// mix small counters with near-saturation ones so the add op's clamping
// is exercised by every tree shape.
func randomLeaves(rng *rand.Rand, n int, rows, buckets int) []Leaf {
	leaves := make([]Leaf, n)
	for i := range leaves {
		rs := make([][]uint32, rows)
		for r := range rs {
			row := make([]uint32, buckets)
			for j := range row {
				switch rng.Intn(10) {
				case 0:
					row[j] = ^uint32(0) - uint32(rng.Intn(3)) // saturation boundary
				case 1:
					row[j] = 0
				default:
					row[j] = rng.Uint32() >> 8
				}
			}
			rs[r] = row
		}
		leaves[i] = Leaf{Switch: i, Rows: rs}
	}
	return leaves
}

// cloneRows deep-copies a readout.
func cloneRows(rows [][]uint32) [][]uint32 {
	out := make([][]uint32, len(rows))
	for i, row := range rows {
		out[i] = append([]uint32(nil), row...)
	}
	return out
}

// flatReference folds leaves in switch order — the engine-independent
// ground truth the tree must match bit for bit.
func flatReference(t *testing.T, leaves []Leaf, op MergeOp) [][]uint32 {
	t.Helper()
	merged := cloneRows(leaves[0].Rows)
	for _, lf := range leaves[1:] {
		for r := range merged {
			if err := op.Combine(merged[r], lf.Rows[r]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return merged
}

func feedLeaves(leaves []Leaf, jitter time.Duration) <-chan Leaf {
	ch := make(chan Leaf, 1)
	go func() {
		defer close(ch)
		for _, lf := range leaves {
			if jitter > 0 {
				time.Sleep(time.Duration(rand.Int63n(int64(jitter))))
			}
			ch <- Leaf{Switch: lf.Switch, Rows: cloneRows(lf.Rows)}
		}
	}()
	return ch
}

func TestMergeStreamBitIdenticalToFlatFold(t *testing.T) {
	// Every op in the algebra is associative and commutative (saturating
	// add included), so any tree shape must reproduce the flat fold
	// exactly — across fleet sizes, arities, and worker counts.
	rng := rand.New(rand.NewSource(11))
	for _, op := range allMergeOps {
		for _, n := range []int{1, 2, 3, 7, 16, 33} {
			for _, arity := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("op=%s/n=%d/k=%d", op, n, arity), func(t *testing.T) {
					leaves := randomLeaves(rng, n, 3, 257)
					want := flatReference(t, leaves, op)
					res, err := MergeStream(feedLeaves(leaves, 0), op, TreeOptions{
						Task: "bitident", Arity: arity, Workers: 4,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Contributed) != n {
						t.Fatalf("contributed %d/%d switches", len(res.Contributed), n)
					}
					for r := range want {
						for j := range want[r] {
							if res.Rows[r][j] != want[r][j] {
								t.Fatalf("row %d bucket %d: tree %d != flat %d",
									r, j, res.Rows[r][j], want[r][j])
							}
						}
					}
					if n == 1 && (res.Depth != 0 || res.Merges != 0) {
						t.Fatalf("single leaf: depth %d merges %d", res.Depth, res.Merges)
					}
					if n > 1 && res.Merges == 0 {
						t.Fatal("multi-leaf reduction executed no merges")
					}
				})
			}
		}
	}
}

func TestMergeStreamEmptyInput(t *testing.T) {
	ch := make(chan Leaf)
	close(ch)
	res, err := MergeStream(ch, MergeAdd, TreeOptions{})
	if err != nil || res.Rows != nil || len(res.Contributed) != 0 {
		t.Fatalf("empty reduction = %+v err %v", res, err)
	}
}

func TestMergeStreamGeometryError(t *testing.T) {
	mk := func(sw int, lens ...int) Leaf {
		rows := make([][]uint32, len(lens))
		for i, l := range lens {
			rows[i] = make([]uint32, l)
		}
		return Leaf{Switch: sw, Rows: rows}
	}
	cases := []struct {
		name           string
		leaves         []Leaf
		wantRow        int
		wantA, wB      int
		wantDimensions [2]int
	}{
		{"row-count", []Leaf{mk(3, 8, 8), mk(5, 8, 8, 8)}, -1, 3, 5, [2]int{2, 3}},
		{"row-length", []Leaf{mk(0, 8, 8), mk(2, 8, 9)}, 1, 0, 2, [2]int{8, 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := MergeStream(feedLeaves(tc.leaves, 0), MergeAdd, TreeOptions{Task: "geo"})
			var ge *GeometryError
			if !errors.As(err, &ge) {
				t.Fatalf("error = %v (%T), want GeometryError", err, err)
			}
			if ge.Task != "geo" || ge.SwitchA != tc.wantA || ge.SwitchB != tc.wB ||
				ge.Row != tc.wantRow || ge.DimA != tc.wantDimensions[0] || ge.DimB != tc.wantDimensions[1] {
				t.Fatalf("GeometryError = %+v", ge)
			}
			if ge.Error() == "" {
				t.Fatal("empty rendering")
			}
		})
	}
}

// TestMergeStreamStress is the race-detector workout `make vet-merge`
// runs: many concurrent reductions with jittered leaf arrival, recycling
// into a shared pool, verifying every result bit-identically.
func TestMergeStreamStress(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	rng := rand.New(rand.NewSource(7))
	leaves := randomLeaves(rng, 24, 3, 129)
	st := &telemetry.MergeTreeStats{}
	recycled := make(chan [][]uint32, 1024)
	recycle := func(rows [][]uint32) {
		select {
		case recycled <- rows:
		default:
		}
	}
	for _, op := range allMergeOps {
		want := flatReference(t, leaves, op)
		doneCh := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func(g int) {
				res, err := MergeStream(feedLeaves(leaves, 200*time.Microsecond), op, TreeOptions{
					Task: "stress", Arity: 2 + g%3, Workers: 4, Stats: st, Recycle: recycle,
				})
				if err != nil {
					doneCh <- err
					return
				}
				for r := range want {
					for j := range want[r] {
						if res.Rows[r][j] != want[r][j] {
							doneCh <- fmt.Errorf("goroutine %d row %d bucket %d: %d != %d",
								g, r, j, res.Rows[r][j], want[r][j])
							return
						}
					}
				}
				doneCh <- nil
			}(g)
		}
		for g := 0; g < 8; g++ {
			if err := <-doneCh; err != nil {
				t.Fatal(err)
			}
		}
	}
	if st.Queries.Load() != 32 || st.Merges.Load() == 0 {
		t.Fatalf("stats: queries %d merges %d", st.Queries.Load(), st.Merges.Load())
	}
	if len(recycled) == 0 {
		t.Fatal("no buffers recycled")
	}
}

func TestRemoteFleetEnginesBitIdentical(t *testing.T) {
	// The deployed path: the merge tree over framed RPC reads must agree
	// bit for bit with the sequential oracle folded over each daemon's
	// in-process register readout (no wire at all), and record its shape
	// telemetry.
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, clients := startDaemons(t, 4, cfg)
	reg := telemetry.NewRegistry()
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{Telemetry: &reg.Fleet, MergeArity: 2})
	if err := fleet.DeployEpoch(cmsSpec("freq")); err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 500, Packets: 20_000, ZipfS: 1.1, Seed: 31})
	for i := range tr.Packets {
		ctrls[i%len(ctrls)].Process(&tr.Packets[i])
	}
	if _, err := fleet.RotateEpoch("freq"); err != nil {
		t.Fatal(err)
	}
	// Each daemon's frozen copy is the one it deployed the task as: its
	// lowest task ID.
	leaves := make([]Leaf, len(clients))
	for i, c := range ctrls {
		rows, err := c.ReadRegisters(c.Tasks()[0].ID)
		if err != nil {
			t.Fatal(err)
		}
		leaves[i] = Leaf{Switch: i, Rows: rows}
	}
	for _, op := range allMergeOps {
		flat := flatReference(t, leaves, op)
		tree, treport, err := fleet.QueryEpochRows("freq", 1, EpochQuery{Op: op})
		if err != nil {
			t.Fatal(err)
		}
		if len(treport.Contributed) != 4 {
			t.Fatalf("contributed: %v", treport.Contributed)
		}
		for r := range flat {
			for j := range flat[r] {
				if flat[r][j] != tree[r][j] {
					t.Fatalf("op %s row %d bucket %d: flat %d != tree %d",
						op, r, j, flat[r][j], tree[r][j])
				}
			}
		}
	}
	mt := &reg.Fleet.MergeTree
	if mt.Queries.Load() == 0 || mt.Merges.Load() == 0 {
		t.Fatalf("merge telemetry: %d queries, %d merges", mt.Queries.Load(), mt.Merges.Load())
	}
	if mt.LastDepth.Load() == 0 || mt.LastFanout.Load() != 4 {
		t.Fatalf("tree shape gauges = depth %d fanout %d", mt.LastDepth.Load(), mt.LastFanout.Load())
	}
}
