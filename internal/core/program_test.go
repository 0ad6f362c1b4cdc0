package core

import (
	"math/rand"
	"testing"

	"flymon/internal/mmtrace"
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

// edgeFilter builds a filter around packet p's own fields, so it hits p:
// each prefix /0, /32 or of random length (a /0 source prefix with a
// random value, which must be ignored), each port and the protocol either
// exact or 0, the wildcard.
func edgeFilter(rng *rand.Rand, p *packet.Packet) packet.Filter {
	bits := func() int { return []int{0, 32, rng.Intn(33)}[rng.Intn(3)] }
	f := packet.Filter{
		SrcPrefix: packet.Prefix{Value: p.SrcIP, Bits: bits()},
		DstPrefix: packet.Prefix{Value: p.DstIP, Bits: bits()},
	}
	if f.SrcPrefix.Bits == 0 {
		f.SrcPrefix.Value = rng.Uint32() // a /0 value is ignored
	}
	if rng.Intn(2) == 0 {
		f.SrcPort = p.SrcPort
	}
	if rng.Intn(2) == 0 {
		f.DstPort = p.DstPort
	}
	if rng.Intn(2) == 0 {
		f.Proto = p.Proto
	}
	return f
}

// TestCompiledMatchEquivalence: the compiled matcher must agree with
// Filter.Matches on every (filter, packet) pair, both from the packet
// (matches, Snapshot.Process's form) and from the packet's trace record
// (matchesFrame, the frame engine's), over random filters and filters
// built around a packet of the batch — /0 and /32 prefixes, exact fields
// and 0 wildcards. The engine and the sequential oracle share the one
// two-word compare, so this test alone holds its lowering to the
// interpretive filter.
func TestCompiledMatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ps := make([]packet.Packet, 256)
	for batch := 0; batch < 40; batch++ {
		for i := range ps {
			ps[i] = randPacket(rng)
		}
		recs := mmtrace.FromPackets(ps).Span(0, len(ps))
		for trial := 0; trial < 100; trial++ {
			f := randFilter(rng)
			if trial%2 == 1 {
				f = edgeFilter(rng, &ps[rng.Intn(len(ps))])
			}
			cm := compileMatch(f)
			for i := range ps {
				want := f.Matches(&ps[i])
				if got := cm.matches(&ps[i]); got != want {
					t.Fatalf("filter %q on %+v: compiled %v, interpretive %v", f, ps[i], got, want)
				}
				if got := cm.matchesFrame(frameAt(recs, int32(i))); got != want {
					t.Fatalf("filter %q on the record of %+v: compiled %v, interpretive %v", f, ps[i], got, want)
				}
			}
			wild := f.SrcPrefix.Bits == 0 && f.DstPrefix.Bits == 0 && f.SrcPort == 0 && f.DstPort == 0 && f.Proto == 0
			if cm.all() != wild {
				t.Fatalf("filter %q: match-all %v, want %v", f, cm.all(), wild)
			}
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
