package core

import (
	"fmt"

	"flymon/internal/dataplane"
	"flymon/internal/hashing"
	"flymon/internal/packet"
)

// Default CMU Group geometry, matching the paper's prototype setting (§5):
// 6 hash distribution units per group — half in the compression stage, half
// consumed by SALU addressing in the operation stage — and 3 CMUs.
const (
	// CompressionUnits is the number of hash units generating compressed
	// keys per group.
	CompressionUnits = 3
	// CMUsPerGroup is the number of CMUs sharing one compression stage.
	CMUsPerGroup = 3
	// StagesPerGroup is the MAU-stage length of one group's four logical
	// stages (compression, initialization, preparation, operation).
	StagesPerGroup = 4
	// DefaultBuckets is the per-CMU register size used by the prototype
	// (16-bit buckets; 64K buckets = 128 KB per CMU).
	DefaultBuckets = 65536
	// DefaultBitWidth is the uniform register bucket width. CMUs need a
	// uniform memory configuration for generality (§3.2); 16 bits matches
	// the paper's examples.
	DefaultBitWidth = 16
)

// MaxSelectableKeys returns the number of distinct keys k hash units offer:
// k single keys plus k(k−1)/2 XOR pairs = k(k+1)/2 (§3.1.1).
func MaxSelectableKeys(k int) int { return k * (k + 1) / 2 }

// Group is a CMU Group: a shared compression stage of hash units feeding
// several CMUs, mapped across four MAU stages.
type Group struct {
	id    int
	units []*hashing.Unit
	cmus  []*CMU

	// keyUse tracks which KeySpec each compression unit currently digests
	// (control-plane bookkeeping for greedy placement, §3.4).
	keyUse []packet.KeySpec
}

// GroupConfig parameterizes group construction; zero values take the
// prototype defaults.
type GroupConfig struct {
	ID               int
	CompressionUnits int
	CMUs             int
	Buckets          int
	BitWidth         int
}

func (c *GroupConfig) defaults() {
	if c.CompressionUnits == 0 {
		c.CompressionUnits = CompressionUnits
	}
	if c.CMUs == 0 {
		c.CMUs = CMUsPerGroup
	}
	if c.Buckets == 0 {
		c.Buckets = DefaultBuckets
	}
	if c.BitWidth == 0 {
		c.BitWidth = DefaultBitWidth
	}
}

// NewGroup builds a CMU Group.
func NewGroup(cfg GroupConfig) *Group {
	cfg.defaults()
	g := &Group{
		id:     cfg.ID,
		keyUse: make([]packet.KeySpec, cfg.CompressionUnits),
	}
	for i := 0; i < cfg.CompressionUnits; i++ {
		// Different groups get different polynomial offsets so their
		// compressed keys are independent.
		g.units = append(g.units, hashing.NewUnit((cfg.ID*cfg.CompressionUnits+i)%hashing.MaxUnits()))
	}
	for i := 0; i < cfg.CMUs; i++ {
		g.cmus = append(g.cmus, NewCMU(i, cfg.Buckets, cfg.BitWidth))
	}
	return g
}

// ID returns the group's identifier.
func (g *Group) ID() int { return g.id }

// CMU returns CMU i of the group.
func (g *Group) CMU(i int) *CMU { return g.cmus[i] }

// CMUs returns the group's CMU count.
func (g *Group) CMUs() int { return len(g.cmus) }

// Units returns the group's compression-unit count.
func (g *Group) Units() int { return len(g.units) }

// ConfigureUnit installs a hash-mask rule on compression unit i so it
// produces C(spec). This is a runtime-rule installation; it does not
// disturb other units or running tasks.
func (g *Group) ConfigureUnit(i int, spec packet.KeySpec) error {
	if i < 0 || i >= len(g.units) {
		return fmt.Errorf("core: group %d has no compression unit %d", g.id, i)
	}
	g.units[i].Configure(spec)
	g.keyUse[i] = spec
	return nil
}

// UnitSpec returns the KeySpec compression unit i currently digests
// (zero-value KeySpec when idle).
func (g *Group) UnitSpec(i int) packet.KeySpec { return g.keyUse[i] }

// FindUnit returns the index of a compression unit already configured for
// spec, or -1. A configured unit no rule reads still matches: reusing it
// costs no hash-mask rule.
func (g *Group) FindUnit(spec packet.KeySpec) int {
	for i, u := range g.units {
		if u.Live() && g.keyUse[i].Equal(spec) {
			return i
		}
	}
	return -1
}

// FreeUnit returns the index of a compression unit no installed rule reads
// (frozen rules included: their readout still hashes through it), or -1. It
// prefers a unit never configured, then the highest-indexed configured one,
// so the bootstrap key on unit 0 — the one most tasks reuse — goes last.
// held lists units the caller configured for rules it has not installed
// yet; they are not free.
func (g *Group) FreeUnit(held ...int) int {
	var busy uint64
	for _, c := range g.cmus {
		for _, r := range c.rules {
			busy |= r.units()
		}
	}
	for _, u := range held {
		if u >= 0 && u < 64 {
			busy |= 1 << uint(u)
		}
	}
	free := -1
	for i, u := range g.units {
		if i < 64 && busy&(1<<uint(i)) != 0 {
			continue
		}
		if !u.Live() {
			return i
		}
		free = i
	}
	return free
}

// Process pushes one packet through the group: the compression stage
// digests the candidate key set under every live hash mask, then each CMU
// runs its matched task. The compressed keys land in the caller's ProcCtx
// scratch, so concurrent workers each carry their own buffer.
func (g *Group) Process(pc *ProcCtx) {
	buf := pc.unitKeys(len(g.units))
	for i, u := range g.units {
		buf[i] = u.Hash(pc.Ctx.Pkt)
	}
	for _, c := range g.cmus {
		c.Process(&pc.Ctx, buf)
	}
}

// HashKey digests a canonical key with compression unit i's polynomial.
// For a key extracted under the same KeySpec the unit is configured with,
// the digest equals the unit's per-packet compressed key — this is how the
// control plane recomputes bucket locations at readout time.
func (g *Group) HashKey(i int, k packet.CanonicalKey) uint32 {
	return g.units[i].HashBytes(k[:])
}

// CompressedKeys computes the group's current compressed keys for a packet
// without executing CMUs (diagnostics and tests).
func (g *Group) CompressedKeys(p *packet.Packet) []uint32 {
	out := make([]uint32, len(g.units))
	for i, u := range g.units {
		out[i] = u.Hash(p)
	}
	return out
}

// CompressedKey is compression unit i's entry of CompressedKeys.
func (g *Group) CompressedKey(i int, p *packet.Packet) uint32 {
	return g.units[i].Hash(p)
}

// Footprint returns the hardware resources one CMU Group occupies across
// its four stages (the Fig. 8 usage table): the compression stage takes
// half a stage's hash units, the operation stage the other half (the SALU
// addressing tax) plus the SALUs and register SRAM, initialization takes
// VLIW, preparation takes TCAM.
func (g *Group) Footprint() dataplane.Resources {
	sram := 0
	for _, c := range g.cmus {
		sram += c.register.SRAMBlocks()
	}
	return dataplane.Resources{
		HashUnits:     len(g.units) + len(g.cmus), // compression + SALU addressing
		SALUs:         len(g.cmus),
		SRAMBlocks:    sram,
		TCAMBlocks:    dataplane.TCAMBlocksPerStage*125/1000 + dataplane.TCAMBlocksPerStage/2, // I: 12.5%, P: 50%
		VLIWSlots:     vliwPerGroup(),
		LogicalTables: 2 + 2*len(g.cmus), // task filter, key select + per-CMU prep & op tables
		PHVBits:       GroupPHVBits(len(g.units), len(g.cmus)),
	}
}

func vliwPerGroup() int {
	// C: 6.25%, I: 25%, P: 6.25%, O: 25% of a stage's 32 slots (Fig. 8).
	s := dataplane.VLIWSlotsPerStage
	return s*625/10000 + s*25/100 + s*625/10000 + s*25/100
}

// GroupPHVBits returns the PHV bits a group occupies with the less-copy
// strategy: one 32-bit compressed key per compression unit, shared by the
// group, plus two 32-bit parameters per CMU (the address rides the hash
// distribution path, not the PHV).
func GroupPHVBits(units, cmus int) int {
	return units*32 + cmus*2*32
}

// UncompressedPHVBits returns the PHV bits per CMU without the less-copy
// strategy: a full candidate-key copy per CMU plus its parameters — the
// O(keyBits) cost compression removes (§3.1.1, Fig. 13c).
func UncompressedPHVBits(keyBits int) int {
	return keyBits + 2*32
}
