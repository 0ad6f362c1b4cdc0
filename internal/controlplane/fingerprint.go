package controlplane

import (
	"encoding/binary"
	"hash/fnv"

	"flymon/internal/core"
	"flymon/internal/packet"
)

// layoutProbes are the fixed packets every controller resolves a task's
// index function on. Every header field varies across the probes, so
// whatever a key spec selects — the whole five-tuple, one address, a prefix
// — the probes digest different keys. The values are arbitrary but frozen:
// changing them changes every fingerprint, and controllers of two builds
// would then (correctly) refuse to merge across.
var layoutProbes = func() (ps [8]packet.Packet) {
	x := uint32(0x9E3779B9)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := range ps {
		ps[i] = packet.Packet{
			SrcIP: next(), DstIP: next(),
			SrcPort: uint16(next()), DstPort: uint16(next()),
			Proto: uint8(next()),
		}
	}
	return ps
}()

// layoutFingerprint hashes everything a register readout of the task at locs
// must share with another controller's for the two to merge element-wise:
// per CMU location, in pipeline order, the stateful op, the partition's
// bucket count, the register's bit width, and the partition-relative index
// each probe packet resolves to along the data plane's own path (compressed
// keys → selector → address translation). It reads no algorithm state, so it
// covers all eleven algorithms alike. Two placements of one spec that differ
// in group (hash polynomial), CMU offset (selector rotation), partition size
// or translation method differ here; two that differ only in partition base
// do not, and need not — a readout is partition-relative.
//
// Callers hold c.mu: the probes hash through the groups' live compression
// units.
func layoutFingerprint(locs []core.TaskLocation) uint64 {
	h := fnv.New64a()
	var word [4]byte
	mix := func(v uint32) {
		binary.LittleEndian.PutUint32(word[:], v)
		h.Write(word[:])
	}
	var keys [len(layoutProbes)][]uint32
	var of *core.Group
	for _, loc := range locs {
		if loc.Group != of {
			of = loc.Group
			for i := range layoutProbes {
				keys[i] = of.CompressedKeys(&layoutProbes[i])
			}
		}
		r := loc.Rule
		mix(uint32(r.Op))
		mix(uint32(r.Mem.Buckets))
		mix(uint32(loc.Group.CMU(loc.CMU).Register().BitWidth()))
		for i := range keys {
			mix(core.Translate(r.Key.Resolve(keys[i]), r.Mem, r.Translation) - uint32(r.Mem.Base))
		}
	}
	return h.Sum64()
}
