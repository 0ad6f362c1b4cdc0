package sketch

import (
	"fmt"
	"math"

	"flymon/internal/hashing"
	"flymon/internal/packet"
)

// CouponConfig parameterizes a BeauCoup coupon-collector query (Chen et
// al., SIGCOMM '20): c coupons, each drawn with probability 2^−ProbLog2 per
// attribute value, and a key is reported once Collect distinct coupons have
// been gathered.
type CouponConfig struct {
	Coupons  int // c ≤ 32 (a bucket's bitmap is one 32-bit word)
	Collect  int // γ: coupons required to report
	ProbLog2 int // q: per-coupon draw probability is 2^−q; requires c ≤ 2^q
}

// ExpectedDraws returns the expected number of distinct attribute values
// needed to collect γ of c coupons at probability 2^−q:
// E = 2^q · (H_c − H_{c−γ}).
func (cc CouponConfig) ExpectedDraws() float64 {
	return math.Exp2(float64(cc.ProbLog2)) * (harmonic(cc.Coupons) - harmonic(cc.Coupons-cc.Collect))
}

// Validate checks structural invariants.
func (cc CouponConfig) Validate() error {
	if cc.Coupons < 1 || cc.Coupons > 32 {
		return fmt.Errorf("sketch: coupon count %d out of range [1,32]", cc.Coupons)
	}
	if cc.Collect < 1 || cc.Collect > cc.Coupons {
		return fmt.Errorf("sketch: collect target %d out of range [1,%d]", cc.Collect, cc.Coupons)
	}
	if cc.ProbLog2 < 0 || cc.ProbLog2 > 28 {
		return fmt.Errorf("sketch: prob exponent %d out of range [0,28]", cc.ProbLog2)
	}
	if cc.Coupons > 1<<uint(cc.ProbLog2) {
		return fmt.Errorf("sketch: %d coupons at probability 2^-%d exceed unit mass", cc.Coupons, cc.ProbLog2)
	}
	return nil
}

// RelativeStdDev returns σ/E of the number of distinct draws needed to
// collect γ of c coupons: the collection is a sum of independent geometric
// stages with success probability p·i (i = c…c−γ+1), so
// Var = Σ (1−pi)/(pi)². Lower relative deviation means a sharper
// threshold classifier.
func (cc CouponConfig) RelativeStdDev() float64 {
	p := math.Exp2(-float64(cc.ProbLog2))
	var varSum float64
	for i := cc.Coupons; i > cc.Coupons-cc.Collect; i-- {
		pi := p * float64(i)
		if pi >= 1 {
			continue
		}
		varSum += (1 - pi) / (pi * pi)
	}
	e := cc.ExpectedDraws()
	if e <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(varSum) / e
}

// CouponTolerance is the solver's match window: configurations whose
// expected draws lie within ±15% (in log terms) of the threshold compete on
// variance.
const CouponTolerance = 0.15

// SolveCouponConfig picks the coupon configuration whose expected
// collection time matches the query threshold, preferring the sharpest
// (lowest relative variance) among near-matching configurations —
// BeauCoup's offline query-compilation step. Only configurations of at most
// maxCoupons coupons are searched: a bucket's coupon bitmap is one register
// word, so a FlyMon task passes its bucket width.
func SolveCouponConfig(threshold, maxCoupons int) CouponConfig {
	if threshold < 1 {
		threshold = 1
	}
	best := CouponConfig{Coupons: 1, Collect: 1, ProbLog2: 0}
	bestErr := math.Inf(1)
	bestStd := math.Inf(1)
	for _, c := range []int{1, 2, 4, 8, 16, 32} {
		if c > maxCoupons {
			break
		}
		minQ := 0
		for 1<<uint(minQ) < c {
			minQ++
		}
		for q := minQ; q <= 24; q++ {
			for gamma := 1; gamma <= c; gamma++ {
				cc := CouponConfig{Coupons: c, Collect: gamma, ProbLog2: q}
				err := math.Abs(math.Log(cc.ExpectedDraws() / float64(threshold)))
				std := cc.RelativeStdDev()
				better := false
				switch {
				case err <= CouponTolerance && bestErr <= CouponTolerance:
					better = std < bestStd
				case err <= CouponTolerance && bestErr > CouponTolerance:
					better = true
				case err > CouponTolerance && bestErr > CouponTolerance:
					better = err < bestErr
				}
				if better {
					bestErr, bestStd, best = err, std, cc
				}
			}
		}
	}
	return best
}

func harmonic(n int) float64 {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}

// Draw maps an attribute-value hash to a coupon index, or -1 when no coupon
// is drawn. Coupon i is drawn when the hash falls in slot i of width
// 2^(32−q); slots beyond the first c draw nothing.
func (cc CouponConfig) Draw(h uint32) int {
	idx := int(h >> uint(32-cc.ProbLog2))
	if cc.ProbLog2 == 0 {
		idx = 0
	}
	if idx >= cc.Coupons {
		return -1
	}
	return idx
}

// BeauCoup answers a multi-key distinct-counting query ("which keys saw ≥ t
// distinct attribute values?") with one memory update per packet. Each of d
// independent tables has m buckets of {checksum, coupon bitmap}; a key is
// reported when all d tables have collected γ coupons for it (d > 1 is the
// CMS-style collision hardening the paper compares as "BeauCoup (d=3)").
type BeauCoup struct {
	keySpec   packet.KeySpec
	paramSpec packet.KeySpec
	cfg       CouponConfig
	d, m      int

	checksums [][]uint32
	bitmaps   [][]uint32
	reported  []map[packet.CanonicalKey]bool

	keyHash   *hashing.Family
	paramHash *hashing.Family
	ckHash    *hashing.Unit
}

// NewBeauCoup builds a BeauCoup query instance: d tables × m buckets,
// counting distinct paramSpec values per keySpec value under cfg.
func NewBeauCoup(keySpec, paramSpec packet.KeySpec, cfg CouponConfig, d, m int) *BeauCoup {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m = ceilPow2(m)
	b := &BeauCoup{
		keySpec: keySpec, paramSpec: paramSpec, cfg: cfg, d: d, m: m,
		keyHash:   hashing.NewFamily(d, keySpec),
		paramHash: hashing.NewFamily(d, paramSpec),
		ckHash:    hashing.NewUnit(hashing.MaxUnits() - 1),
	}
	b.ckHash.Configure(keySpec)
	for j := 0; j < d; j++ {
		b.checksums = append(b.checksums, make([]uint32, m))
		b.bitmaps = append(b.bitmaps, make([]uint32, m))
		b.reported = append(b.reported, make(map[packet.CanonicalKey]bool))
	}
	return b
}

// NewBeauCoupForBytes sizes d tables to a total memory budget (8 bytes per
// bucket: 4 checksum + 4 bitmap).
func NewBeauCoupForBytes(keySpec, paramSpec packet.KeySpec, threshold, d, memBytes int) *BeauCoup {
	m := memBytes / (8 * d)
	if m < 1 {
		m = 1
	}
	return NewBeauCoup(keySpec, paramSpec, SolveCouponConfig(threshold, 32), d, m)
}

// AddPacket performs at most one coupon draw per table for packet p.
func (b *BeauCoup) AddPacket(p *packet.Packet) {
	key := b.keySpec.Extract(p)
	ck := b.ckHash.Hash(p)
	if ck == 0 {
		ck = 1 // zero marks an empty bucket
	}
	for j := 0; j < b.d; j++ {
		coupon := b.cfg.Draw(b.paramHash.Hash(j, p))
		if coupon < 0 {
			continue
		}
		idx := b.keyHash.Hash(j, p) & uint32(b.m-1)
		switch b.checksums[j][idx] {
		case 0:
			b.checksums[j][idx] = ck // claim the empty bucket
		case ck:
			// ours
		default:
			continue // occupied by another key: BeauCoup skips the draw
		}
		b.bitmaps[j][idx] |= 1 << uint(coupon)
		if popcount(b.bitmaps[j][idx]) >= b.cfg.Collect {
			b.reported[j][key] = true
		}
	}
}

// Reported returns the keys reported by all d tables.
func (b *BeauCoup) Reported() map[packet.CanonicalKey]bool {
	out := make(map[packet.CanonicalKey]bool)
	for k := range b.reported[0] {
		all := true
		for j := 1; j < b.d; j++ {
			if !b.reported[j][k] {
				all = false
				break
			}
		}
		if all {
			out[k] = true
		}
	}
	return out
}

func popcount(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// BeauCoupCardinality estimates whole-traffic cardinality with a bank of
// coupon rows at geometrically spaced probabilities — the multi-resolution
// use of coupons the paper evaluates in Fig. 14d with as little as 16 bytes
// of state. Each row is a c-coupon collector at probability 2^−q; the
// estimate comes from the most informative (least saturated, non-empty)
// row.
type BeauCoupCardinality struct {
	spec packet.KeySpec
	rows []cardRow
	hash *hashing.Unit
}

type cardRow struct {
	cfg    CouponConfig
	bitmap uint32
}

// NewBeauCoupCardinalityForBytes builds ⌊memBytes/4⌋ coupon rows (4 bytes
// each) at geometrically spaced probabilities, spread so that even a
// 16-byte bank covers cardinalities from tens to hundreds of thousands.
func NewBeauCoupCardinalityForBytes(spec packet.KeySpec, memBytes int) *BeauCoupCardinality {
	rows := memBytes / 4
	if rows < 1 {
		rows = 1
	}
	if rows > 16 {
		rows = 16
	}
	h := hashing.NewUnit(0)
	h.Configure(spec)
	bc := &BeauCoupCardinality{spec: spec, hash: h}
	// Few rows must span a wide range (coarse steps); many rows can
	// overlap for variance reduction (fine steps).
	step := 3
	if rows >= 8 {
		step = 2
	}
	for r := 0; r < rows; r++ {
		q := 5 + step*r
		if q > 24 {
			q = 24
		}
		bc.rows = append(bc.rows, cardRow{cfg: CouponConfig{Coupons: 32, Collect: 32, ProbLog2: q}})
	}
	return bc
}

// AddPacket draws coupons for p's flow key in every row.
func (bc *BeauCoupCardinality) AddPacket(p *packet.Packet) {
	h := bc.hash.Hash(p)
	for r := range bc.rows {
		// Re-randomize per row by mixing the row index into the hash.
		hr := h*2654435761 + uint32(r)*0x9E3779B9
		hr ^= hr >> 15
		if c := bc.rows[r].cfg.Draw(hr); c >= 0 {
			bc.rows[r].bitmap |= 1 << uint(c)
		}
	}
}

// Estimate combines the informative (non-empty, non-saturated) rows by
// inverse-variance weighting; saturated rows contribute only a lower
// bound when nothing better exists.
func (bc *BeauCoupCardinality) Estimate() float64 {
	var wSum, wEst float64
	var saturatedFloor float64
	for r := range bc.rows {
		j := popcount(bc.rows[r].bitmap)
		cfg := bc.rows[r].cfg
		if j == 0 {
			continue
		}
		est := math.Exp2(float64(cfg.ProbLog2)) * (harmonic(cfg.Coupons) - harmonic(cfg.Coupons-j))
		if j >= cfg.Coupons {
			if est > saturatedFloor {
				saturatedFloor = est
			}
			continue
		}
		c := cfg
		c.Collect = j
		rel := c.RelativeStdDev()
		if rel <= 0 || math.IsInf(rel, 1) {
			continue
		}
		w := 1 / (rel * rel * est * est) // inverse absolute variance
		wSum += w
		wEst += w * est
	}
	if wSum > 0 {
		est := wEst / wSum
		if est < saturatedFloor {
			est = saturatedFloor
		}
		return est
	}
	return saturatedFloor
}
