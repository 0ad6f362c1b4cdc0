package sketch

import (
	"container/heap"
	"math"

	"flymon/internal/hashing"
	"flymon/internal/packet"
)

// UnivMon (Liu et al., SIGCOMM '16) is a universal sketch: L levels of
// Count Sketches over recursively half-sampled substreams, each tracking
// its top-k heavy flows. Any G-sum statistic Σ g(f) — and hence heavy
// hitters, entropy, and cardinality — is recovered by the recursive
// estimator Y_ℓ = 2·Y_{ℓ+1} + Σ_{f∈Q_ℓ} (1 − 2·sampled_{ℓ+1}(f))·g(ŵ_ℓ(f)).
type UnivMon struct {
	spec    packet.KeySpec
	levels  int
	sk      []*CountSketch
	heaps   []*topK
	sampler *hashing.Family // one sampling bit per level transition
	packets uint64
}

// NewUnivMon builds a UnivMon with `levels` levels, each a d×w Count Sketch
// tracking its top-k flows.
func NewUnivMon(spec packet.KeySpec, levels, d, w, k int) *UnivMon {
	if levels < 1 {
		levels = 1
	}
	if levels > hashing.MaxUnits() {
		levels = hashing.MaxUnits()
	}
	u := &UnivMon{spec: spec, levels: levels, sampler: hashing.NewFamily(levels, spec)}
	for ℓ := 0; ℓ < levels; ℓ++ {
		u.sk = append(u.sk, NewCountSketch(spec, d, w))
		u.heaps = append(u.heaps, newTopK(k))
	}
	return u
}

// NewUnivMonForBytes splits memBytes across the standard configuration:
// 8 levels of d=3 Count Sketches, with per-level top-k heaps sized to the
// budget (the heaps are charged against the budget too).
func NewUnivMonForBytes(spec packet.KeySpec, memBytes int) *UnivMon {
	levels := 8
	k := memBytes / 1024
	if k < 32 {
		k = 32
	}
	if k > 512 {
		k = 512
	}
	heapBytes := levels * k * (packet.MaxKeyBytes + 8)
	sketchBytes := memBytes - heapBytes
	if sketchBytes < memBytes/3 {
		sketchBytes = memBytes / 3
	}
	w := sketchBytes / (levels * 3 * 4)
	if w < 8 {
		w = 8
	}
	return NewUnivMon(spec, levels, 3, w, k)
}

// AddPacket feeds packet p to every level it is sampled into.
func (u *UnivMon) AddPacket(p *packet.Packet) {
	u.packets++
	k := u.spec.Extract(p)
	for ℓ := 0; ℓ < u.levels; ℓ++ {
		if ℓ > 0 && !u.sampledAt(k, ℓ) {
			break // sampling is nested: failing level ℓ fails all deeper
		}
		u.sk[ℓ].AddKey(k, 1)
		est := u.sk[ℓ].EstimateKey(k)
		u.heaps[ℓ].offer(k, est)
	}
}

// sampledAt reports whether key k survives sampling into level ℓ (ℓ ≥ 1):
// the top bits of ℓ independent hashes must all be 1.
func (u *UnivMon) sampledAt(k packet.CanonicalKey, ℓ int) bool {
	for i := 1; i <= ℓ; i++ {
		if u.sampler.HashBytes(i%u.levels, k[:])&1 == 0 {
			return false
		}
	}
	return true
}

// HeavyHitters reports flows whose level-0 estimate meets the threshold.
func (u *UnivMon) HeavyHitters(threshold uint64) map[packet.CanonicalKey]bool {
	out := make(map[packet.CanonicalKey]bool)
	for _, it := range u.heaps[0].items {
		if uint64(it.est) >= threshold {
			out[it.key] = true
		}
	}
	return out
}

// GSum evaluates the recursive universal estimator for statistic g.
func (u *UnivMon) GSum(g func(w float64) float64) float64 {
	var y float64
	// Bottom level: plain sum over its heavy flows.
	bottom := u.levels - 1
	for _, it := range u.heaps[bottom].items {
		y += g(float64(it.est))
	}
	for ℓ := bottom - 1; ℓ >= 0; ℓ-- {
		var yl float64 = 2 * y
		for _, it := range u.heaps[ℓ].items {
			w := float64(it.est)
			if w <= 0 {
				continue
			}
			ind := 0.0
			if u.sampledAt(it.key, ℓ+1) {
				ind = 1.0
			}
			yl += (1 - 2*ind) * g(w)
		}
		if yl < 0 {
			yl = 0
		}
		y = yl
	}
	return y
}

// Entropy estimates the Shannon entropy of the flow-size distribution:
// H = log2(N) − (1/N)·Σ f·log2(f), with the G-sum estimating Σ f·log2 f.
func (u *UnivMon) Entropy() float64 {
	if u.packets == 0 {
		return 0
	}
	s := u.GSum(func(w float64) float64 {
		if w < 1 {
			return 0
		}
		return w * math.Log2(w)
	})
	n := float64(u.packets)
	h := math.Log2(n) - s/n
	if h < 0 {
		h = 0
	}
	return h
}

// topK is a bounded min-heap of (key, estimate) with map-backed membership.
type topK struct {
	cap   int
	items []topItem
	pos   map[packet.CanonicalKey]int
}

type topItem struct {
	key packet.CanonicalKey
	est int64
}

func newTopK(cap_ int) *topK {
	if cap_ < 1 {
		cap_ = 1
	}
	return &topK{cap: cap_, pos: make(map[packet.CanonicalKey]int)}
}

// offer inserts or updates key with estimate est, evicting the smallest
// item when over capacity.
func (t *topK) offer(key packet.CanonicalKey, est int64) {
	if i, ok := t.pos[key]; ok {
		t.items[i].est = est
		heap.Fix(t, i)
		return
	}
	if len(t.items) < t.cap {
		heap.Push(t, topItem{key, est})
		return
	}
	if t.items[0].est >= est {
		return
	}
	delete(t.pos, t.items[0].key)
	t.items[0] = topItem{key, est}
	t.pos[key] = 0
	heap.Fix(t, 0)
}

// heap.Interface
func (t *topK) Len() int           { return len(t.items) }
func (t *topK) Less(i, j int) bool { return t.items[i].est < t.items[j].est }
func (t *topK) Swap(i, j int) {
	t.items[i], t.items[j] = t.items[j], t.items[i]
	t.pos[t.items[i].key] = i
	t.pos[t.items[j].key] = j
}
func (t *topK) Push(x any) {
	it := x.(topItem)
	t.pos[it.key] = len(t.items)
	t.items = append(t.items, it)
}
func (t *topK) Pop() any {
	old := t.items
	n := len(old)
	it := old[n-1]
	t.items = old[:n-1]
	delete(t.pos, it.key)
	return it
}
