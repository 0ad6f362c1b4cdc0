package core

import (
	"math/rand"
	"testing"

	"flymon/internal/packet"
)

// randFilter draws a filter over a small value domain so wildcards, hits,
// and misses all occur.
func randFilter(rng *rand.Rand) packet.Filter {
	var f packet.Filter
	if rng.Intn(2) == 0 {
		f.SrcPrefix = packet.Prefix{Value: rng.Uint32(), Bits: rng.Intn(33)}
	}
	if rng.Intn(2) == 0 {
		f.DstPrefix = packet.Prefix{Value: rng.Uint32(), Bits: rng.Intn(33)}
	}
	if rng.Intn(2) == 0 {
		f.SrcPort = uint16(rng.Intn(4))
	}
	if rng.Intn(2) == 0 {
		f.DstPort = uint16(rng.Intn(4))
	}
	if rng.Intn(2) == 0 {
		f.Proto = uint8(rng.Intn(3))
	}
	return f
}

func randPacket(rng *rand.Rand) packet.Packet {
	return packet.Packet{
		SrcIP:   rng.Uint32() >> uint(rng.Intn(32)), // bias towards shared prefixes
		DstIP:   rng.Uint32() >> uint(rng.Intn(32)),
		SrcPort: uint16(rng.Intn(4)),
		DstPort: uint16(rng.Intn(4)),
		Proto:   uint8(rng.Intn(3)),
	}
}

// TestCompiledMatchEquivalence: the specialized matchers must agree with
// Filter.Matches on every (filter, packet) pair — the compiled engine's
// task selection is only correct if this holds exactly.
func TestCompiledMatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20_000; trial++ {
		f := randFilter(rng)
		cm := compileMatch(f)
		p := randPacket(rng)
		if got, want := cm.matches(&p), f.Matches(&p); got != want {
			t.Fatalf("filter %q (kind %d) on %+v: compiled %v, interpretive %v",
				f, cm.kind, p, got, want)
		}
	}
}

// TestCompiledMatchSpecialization: common filter shapes must compile to
// their cheap matcher kinds.
func TestCompiledMatchSpecialization(t *testing.T) {
	cases := []struct {
		f    packet.Filter
		kind matchKind
	}{
		{packet.MatchAll, matchAll},
		{packet.Filter{DstPort: 9}, matchExact},
		{packet.Filter{Proto: 6}, matchExact},
		{packet.Filter{SrcPrefix: packet.Prefix{Value: 0x0A000000, Bits: 8}}, matchPrefix},
		{packet.Filter{SrcPrefix: packet.Prefix{Value: 0x0A000000, Bits: 8}, DstPort: 53}, matchGeneric},
	}
	for _, tc := range cases {
		if got := compileMatch(tc.f).kind; got != tc.kind {
			t.Errorf("filter %q compiled to kind %d, want %d", tc.f, got, tc.kind)
		}
	}
}

// TestCompiledSelEquivalence: a compiled selector over the deduplicated
// digest cache must produce exactly what Selector.Resolve produces over
// the group-local key vector it replaces.
func TestCompiledSelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20_000; trial++ {
		nUnits := 1 + rng.Intn(4)
		// unitHash maps local units to slots of a shared digest cache;
		// some units are idle (-1).
		hashes := make([]uint32, 1+rng.Intn(6))
		for i := range hashes {
			hashes[i] = rng.Uint32()
		}
		unitHash := make([]int, nUnits)
		keys := make([]uint32, nUnits)
		for i := range unitHash {
			if rng.Intn(4) == 0 {
				unitHash[i] = -1
				keys[i] = 0
			} else {
				unitHash[i] = rng.Intn(len(hashes))
				keys[i] = hashes[unitHash[i]]
			}
		}
		sel := Selector{
			UnitA: rng.Intn(nUnits+2) - 1, // includes -1 and out-of-range
			UnitB: rng.Intn(nUnits+2) - 1,
			Lo:    rng.Intn(70) - 35,
			Width: rng.Intn(35) - 1,
		}
		cs := compileSel(sel, unitHash)
		if got, want := cs.resolve(hashes), sel.Resolve(keys); got != want {
			t.Fatalf("selector %+v (unitHash %v): compiled %#x, interpretive %#x",
				sel, unitHash, got, want)
		}
	}
}

// TestCompiledTranslateEquivalence: the folded shift/mask address
// translation must agree with Translate for both methods, power-of-two and
// degenerate ranges alike.
func TestCompiledTranslateEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mems := []MemRange{
		{Base: 0, Buckets: 0},
		{Base: 128, Buckets: 0},
		{Base: 0, Buckets: 1},
		{Base: 0, Buckets: 1024},
		{Base: 3072, Buckets: 1024},
		{Base: 65536 - 16, Buckets: 16},
	}
	unitHash := []int{0}
	for _, mem := range mems {
		for _, method := range []TranslationMethod{ShiftBased, TCAMBased} {
			r := &Rule{Key: FullKey(0), Mem: mem, Translation: method}
			cr := compileRule(r, nil, unitHash)
			for trial := 0; trial < 1000; trial++ {
				addr := rng.Uint32()
				var got uint32
				if cr.shifted {
					got = cr.base + addr>>cr.addrShift
				} else {
					got = cr.base + addr&cr.addrMask
				}
				if want := Translate(addr, mem, method); got != want {
					t.Fatalf("mem %v %v addr %#x: compiled %d, Translate %d",
						mem, method, addr, got, want)
				}
			}
		}
	}
}

// TestCompiledParamFoldsMaxValue: ParamMaxValue compiles to a constant, so
// the hot path never re-derives +inf.
func TestCompiledParamFoldsMaxValue(t *testing.T) {
	cp := compileParam(MaxValue(), nil)
	if cp.kind != ParamConst || cp.value != ^uint32(0) {
		t.Fatalf("MaxValue compiled to %+v, want ParamConst ^0", cp)
	}
}
