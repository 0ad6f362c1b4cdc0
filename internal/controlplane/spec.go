package controlplane

import (
	"fmt"
	"strings"

	"flymon/internal/packet"
)

// enumName is one enum constant's two spellings: the word a front end
// accepts (flymonctl add's -attr / -param / -alg) and the one String prints
// (the paper's Table 1 and Table 3 names).
type enumName struct{ cli, display string }

// enum is a task-grammar enumeration: its constants index its name table.
type enum interface {
	~uint8
	names() []enumName
}

// ParseEnum is the inverse of String for Attribute, ParamKind and
// Algorithm: it resolves either spelling of a constant, ignoring case.
func ParseEnum[T enum](s string) (T, error) {
	var zero T
	for i, n := range zero.names() {
		if strings.EqualFold(s, n.cli) || strings.EqualFold(s, n.display) {
			return T(i), nil
		}
	}
	return zero, fmt.Errorf("controlplane: %q is not one of %s", s, EnumNames[T]())
}

// EnumNames lists T's front-end words as "a|b|c", in constant order — the
// help text of the flag ParseEnum[T] reads.
func EnumNames[T enum]() string {
	var zero T
	words := make([]string, len(zero.names()))
	for i, n := range zero.names() {
		words[i] = n.cli
	}
	return strings.Join(words, "|")
}

func enumString[T enum](v T, kind string) string {
	if n := v.names(); int(v) < len(n) {
		return n[v].display
	}
	return fmt.Sprintf("%s(%d)", kind, uint8(v))
}

// Attribute is the flow attribute of a measurement task (§2.1): what
// statistic is computed over each flow's packets.
type Attribute uint8

// Supported attributes (Table 1).
const (
	// AttrFrequency accumulates a parameter per key (per-flow size, heavy
	// hitters, heavy changers).
	AttrFrequency Attribute = iota
	// AttrDistinct counts distinct parameter values per key (DDoS victims,
	// super-spreaders, port scans, cardinality).
	AttrDistinct
	// AttrExistence checks set membership of the parameter (blacklists).
	AttrExistence
	// AttrMax tracks the maximum parameter per key (congestion, HoL
	// blocking, packet inter-arrival).
	AttrMax
)

var attributeNames = [...]enumName{
	AttrFrequency: {"frequency", "Frequency"},
	AttrDistinct:  {"distinct", "Distinct"},
	AttrExistence: {"existence", "Existence"},
	AttrMax:       {"max", "Max"},
}

func (Attribute) names() []enumName { return attributeNames[:] }

// String implements fmt.Stringer.
func (a Attribute) String() string { return enumString(a, "Attribute") }

// ParamKind is the attribute-parameter source of a task.
type ParamKind uint8

// Parameter kinds.
const (
	// ParamPacketCount is the constant 1 (per-flow packet counts).
	ParamPacketCount ParamKind = iota
	// ParamPacketBytes is the packet's wire size (per-flow byte counts).
	ParamPacketBytes
	// ParamQueueLength is the switch queue depth metadata.
	ParamQueueLength
	// ParamQueueDelay is the queueing-delay metadata.
	ParamQueueDelay
	// ParamPacketInterval is the packet inter-arrival time (combinatorial,
	// needs three CMUs, §4).
	ParamPacketInterval
	// ParamFlowKey is a flow-key parameter (the distinct/existence
	// attribute's "what to count": e.g. Distinct(SrcIP) per DstIP).
	ParamFlowKey
)

// A flow-key parameter is written as the key spec itself, so ParamFlowKey's
// front-end word is a placeholder no key spec parses to.
var paramKindNames = [...]enumName{
	ParamPacketCount:    {"count", "Const(1)"},
	ParamPacketBytes:    {"bytes", "PktBytes"},
	ParamQueueLength:    {"qlen", "QueueLength"},
	ParamQueueDelay:     {"qdelay", "QueueDelay"},
	ParamPacketInterval: {"interval", "PktInterval"},
	ParamFlowKey:        {"<keyspec>", "FlowKey"},
}

func (ParamKind) names() []enumName { return paramKindNames[:] }

// String implements fmt.Stringer.
func (p ParamKind) String() string { return enumString(p, "ParamKind") }

// ParamSpec is the attribute parameter with its optional flow-key spec.
type ParamSpec struct {
	Kind ParamKind
	Key  packet.KeySpec // for ParamFlowKey
}

// Algorithm identifies a built-in measurement algorithm (Table 3).
type Algorithm uint8

// Built-in algorithms; AlgAuto lets the compiler choose by attribute.
const (
	AlgAuto Algorithm = iota
	AlgCMS
	AlgSuMaxSum
	AlgMRAC
	AlgTower
	AlgCounterBraids
	AlgBeauCoup
	AlgHLL
	AlgLinearCounting
	AlgBloom
	AlgSuMaxMax
	AlgMaxInterval
)

var algorithmNames = [...]enumName{
	AlgAuto:           {"auto", "auto"},
	AlgCMS:            {"cms", "FlyMon-CMS"},
	AlgSuMaxSum:       {"sumax", "FlyMon-SuMax(Sum)"},
	AlgMRAC:           {"mrac", "FlyMon-MRAC"},
	AlgTower:          {"tower", "FlyMon-TowerSketch"},
	AlgCounterBraids:  {"cb", "FlyMon-CounterBraids"},
	AlgBeauCoup:       {"beaucoup", "FlyMon-BeauCoup"},
	AlgHLL:            {"hll", "FlyMon-HLL"},
	AlgLinearCounting: {"lc", "FlyMon-LinearCounting"},
	AlgBloom:          {"bloom", "FlyMon-BloomFilter"},
	AlgSuMaxMax:       {"sumaxmax", "FlyMon-SuMax(Max)"},
	AlgMaxInterval:    {"interval", "FlyMon-MaxInterval"},
}

func (Algorithm) names() []enumName { return algorithmNames[:] }

// String implements fmt.Stringer.
func (a Algorithm) String() string { return enumString(a, "Algorithm") }

// GroupsNeeded returns how many CMU Groups the algorithm spans for depth d
// (Table 3's "CMUG Usage").
func (a Algorithm) GroupsNeeded(d int) int {
	switch a {
	case AlgSuMaxSum:
		return d
	case AlgMaxInterval:
		return 3
	default:
		return 1
	}
}

// TaskSpec is a measurement-task definition as issued by an operator: a
// filter, a key, an attribute with parameters, and a memory size — the
// task abstraction of §2.1/§3.4.
type TaskSpec struct {
	Name      string
	Filter    packet.Filter
	Key       packet.KeySpec
	Attribute Attribute
	Param     ParamSpec

	// Threshold parameterizes detection tasks (heavy hitters, DDoS
	// victims) and BeauCoup's coupon configuration.
	Threshold int

	// MemBuckets is the requested buckets per row.
	MemBuckets int

	// D is the row count (CMUs per algorithm instance); 0 takes the
	// algorithm default.
	D int

	// Algorithm optionally pins the implementation; AlgAuto compiles by
	// attribute.
	Algorithm Algorithm

	// Prob enables probabilistic execution (§6); 0 or 1 = always.
	Prob float64
}

// Validate checks the spec's structural invariants.
func (s *TaskSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("controlplane: task needs a name")
	}
	if s.MemBuckets <= 0 {
		return fmt.Errorf("controlplane: task %q needs a positive memory size", s.Name)
	}
	if s.D < 0 || s.D > 3 {
		return fmt.Errorf("controlplane: task %q depth %d out of range [0,3]", s.Name, s.D)
	}
	if !(s.Prob >= 0 && s.Prob <= 1) { // NaN fails both comparisons
		return fmt.Errorf("controlplane: task %q probability %v out of range [0,1]", s.Name, s.Prob)
	}
	switch s.Attribute {
	case AttrDistinct:
		if len(s.Key.Parts) > 0 && s.Param.Kind != ParamFlowKey {
			return fmt.Errorf("controlplane: task %q: Distinct needs a flow-key parameter", s.Name)
		}
	case AttrExistence:
		if s.Param.Kind != ParamFlowKey {
			return fmt.Errorf("controlplane: task %q: Existence needs a flow-key parameter", s.Name)
		}
	case AttrFrequency, AttrMax:
		if s.Param.Kind == ParamFlowKey {
			return fmt.Errorf("controlplane: task %q: %s cannot take a flow-key parameter", s.Name, s.Attribute)
		}
	default:
		return fmt.Errorf("controlplane: task %q: unknown attribute %d", s.Name, s.Attribute)
	}
	return nil
}

// ChooseAlgorithm resolves AlgAuto: the compiler's per-attribute default
// (Table 3), honoring an explicit pin.
func (s *TaskSpec) ChooseAlgorithm() Algorithm {
	if s.Algorithm != AlgAuto {
		return s.Algorithm
	}
	switch s.Attribute {
	case AttrFrequency:
		return AlgCMS
	case AttrDistinct:
		if len(s.Key.Parts) == 0 {
			return AlgHLL // single-key distinct: flow cardinality
		}
		return AlgBeauCoup
	case AttrExistence:
		return AlgBloom
	case AttrMax:
		if s.Param.Kind == ParamPacketInterval {
			return AlgMaxInterval
		}
		return AlgSuMaxMax
	default:
		return AlgCMS
	}
}

// DefaultD returns the algorithm's default row count.
func DefaultD(a Algorithm) int {
	switch a {
	case AlgMRAC, AlgHLL, AlgLinearCounting:
		return 1
	case AlgCounterBraids:
		return 2
	case AlgMaxInterval:
		return 3
	default:
		return 3
	}
}
