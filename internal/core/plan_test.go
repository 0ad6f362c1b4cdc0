package core

import (
	"strings"
	"testing"

	"flymon/internal/dataplane"
	"flymon/internal/packet"
)

// planString renders s's plan, one word per compiled CMU in pipeline order,
// CMUs of a group separated by spaces, groups by " | ", and the spliced
// pass after " || ". A column-stage CMU reads as its rules' kernels joined
// by commas — add, comb, fold or gen — each suffixed +bus when its
// witnesses go back onto the bus and +lane when it writes a private lane,
// then, unless a match-all rule at position 0 wins every frame, its
// selection (plan.selection): @group, or @frame with its reason,
// (ungrouped) or (outside-key); a packet-order CMU reads as its reason:
// sampled, bus or spliced. An ungrouped snapshot is prefixed "ungrouped:".
func planString(s *Snapshot) string {
	var b strings.Builder
	if !s.plan.grouped {
		b.WriteString("ungrouped: ")
	}
	for pass, groups := range [][]snapGroup{s.groups, s.spliced} {
		for gi, sg := range groups {
			switch {
			case gi > 0:
				b.WriteString(" | ")
			case pass > 0:
				b.WriteString(" || ")
			}
			for ci, sc := range sg.cmus {
				if ci > 0 {
					b.WriteByte(' ')
				}
				if sc.stage != stageColumn {
					b.WriteString([]string{stageSampled: "sampled", stageBus: "bus", stageSpliced: "spliced"}[sc.stage])
					continue
				}
				for ri := range sc.prog {
					r := &sc.prog[ri]
					if ri > 0 {
						b.WriteByte(',')
					}
					b.WriteString([]string{kernelGeneric: "gen", kernelAddCounts: "add", kernelCombined: "comb", kernelFoldedP1: "fold"}[r.kernel])
					if r.scatter {
						b.WriteString("+bus")
					}
					if r.sharded {
						b.WriteString("+lane")
					}
				}
				b.WriteString([]string{selectGroups: "@group", selectUngrouped: "@frame(ungrouped)",
					selectOutsideKey: "@frame(outside-key)"}[s.plan.selection(&sc)])
			}
		}
	}
	return b.String()
}

// TestEnginePlan holds the planner to a table: for every hand-built shape of the
// frame-engine and combining tests, each CMU's stage, or reason for packet
// order, and each column-stage rule's kernel (planString), and the plan's
// dispatch lists to those stages. The differential tests the shapes come
// from prove each plan runs bit-identical to the sequential path; this
// table pins which plan they prove.
func TestEnginePlan(t *testing.T) {
	cms9 := strings.TrimSuffix(strings.Repeat("add add add | ", 9), " | ")
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *Pipeline
		want  string
	}{
		{"nine-cms", func(t *testing.T) *Pipeline { return nineCMS(t, 4096) }, cms9},
		{"churn4", churnShape, "add add add | comb comb fold"},
		{"features", buildFramesPipeline,
			"gen+bus gen+bus gen+bus | gen+bus,gen+bus@group gen+bus gen+bus | gen+bus gen+bus gen+bus | gen+bus"},
		{"columns-quiet", func(t *testing.T) *Pipeline { return buildColumnsPipeline(t, true) },
			"fold gen@group comb | comb,comb@group comb | gen fold comb"},
		{"columns-bus", func(t *testing.T) *Pipeline { return buildColumnsPipeline(t, false) },
			"gen+bus gen+bus@group gen+bus | gen+bus,gen+bus@group gen+bus | gen+bus gen+bus gen+bus | gen+bus gen+bus"},
		{"cms-full-width", func(t *testing.T) *Pipeline { return cmsPipeline(t, 32, 4096) }, "add add add"},
		{"cms-narrow", func(t *testing.T) *Pipeline { return cmsPipeline(t, 8, 256) }, "gen gen gen"},
		{"cms-lanes", func(t *testing.T) *Pipeline {
			pl := cmsPipeline(t, 32, 4096)
			pl.EnableSharding(2)
			return pl
		}, "add+lane add+lane add+lane"},
		{"many-rules", func(t *testing.T) *Pipeline { return manyRules(t, 300) },
			strings.TrimSuffix(strings.Repeat("add,", 300), ",") + "@group"},
		{"probabilistic", sampledRow, "sampled"},
		{"spliced", splicedRow, "add || spliced"},
		{"churn-sampled", func(t *testing.T) *Pipeline { return sampledChurnShape(t, 1) },
			"add add add | comb comb fold | sampled sampled sampled"},
		{"spliced-own-mask", splicedOwnMask, "add add || spliced spliced"},
		{"sampled-shares-cmu", sampledShared, "add add add | comb comb fold | sampled sampled fold"},
		{"sampled-two-groups", sampledTwice,
			"add add add | comb comb fold | sampled sampled sampled | sampled sampled"},
		{"sampled-spliced", sampledSpliced, "add add | sampled sampled sampled || spliced spliced spliced"},
		{"sampled-bus", sampledBus, "sampled bus | sampled bus | bus bus bus"},
		{"saturation", func(t *testing.T) *Pipeline { return saturationShape(t, 64, 1500) }, "add add gen"},
		{"beside-filtered", besideFilteredShape, "add add add | add,add@group add@group"},
		{"unread-fields", unreadFieldsShape, "add gen fold"},
		{"timestamp-key", timestampKeyShape, "ungrouped: add add add | add"},
		{"filtered-in-key", func(t *testing.T) *Pipeline { return filteredInKeyShape(t, true) },
			"add,add@group comb,comb@group fold@group | gen@group"},
		{"filtered-in-key-bus", func(t *testing.T) *Pipeline { return filteredInKeyShape(t, false) },
			"gen+bus,gen+bus@group gen+bus,gen+bus@group gen+bus@group | gen+bus@group | gen+bus gen+bus"},
		{"filtered-outside-key", outsideKeyShape,
			"add@frame(outside-key) comb@frame(outside-key) fold@frame(outside-key)"},
		{"filtered-ungrouped", func(t *testing.T) *Pipeline {
			pl := timestampKeyShape(t)
			if err := pl.Group(1).CMU(1).InstallRule(&Rule{TaskID: 3,
				Filter: packet.Filter{SrcPrefix: packet.Prefix{Value: 1 << 24, Bits: 8}},
				Key:    FullKey(0).SubRange(8, 32), P1: Const(1), P2: MaxValue(),
				Mem: MemRange{Base: 0, Buckets: 4096}, Op: dataplane.OpCondAdd}); err != nil {
				t.Fatal(err)
			}
			return pl
		}, "ungrouped: add add add | add add@frame(ungrouped)"},
		{"idle-spliced", func(t *testing.T) *Pipeline {
			pl := cmsPipeline(t, 32, 4096)
			if err := pl.AddSpliced(NewGroup(GroupConfig{ID: 100, Buckets: 1024, BitWidth: 32})); err != nil {
				t.Fatal(err)
			}
			return pl
		}, "add add add"},
		{"frozen-spliced", func(t *testing.T) *Pipeline {
			pl := splicedRow(t)
			pl.spliced[0].CMU(0).RuleFor(2).Disabled = true
			return pl
		}, "add"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkPlan(t, tc.build(t).Compile(), tc.want)
		})
	}
	idempotent := map[string]string{
		"bloom":            "comb comb",
		"beaucoup":         "comb",
		"sumax-max-32":     "fold fold fold",
		"sumax-max-8":      "fold fold fold",
		"and-or-per-frame": "fold fold",
		"filtered":         "fold@group",
		"bus-consumer":     "gen+bus gen+bus",
	}
	for _, tc := range idempotentCases() {
		t.Run("idempotent-"+tc.name, func(t *testing.T) {
			checkPlan(t, idempotentShape(t, tc.width, tc.rules).Compile(), idempotent[tc.name])
		})
	}
}

// checkPlan fails unless s's plan renders as want and its dispatch lists
// hold exactly the CMUs of each stage.
func checkPlan(t *testing.T, s *Snapshot, want string) {
	t.Helper()
	if got := planString(s); got != want {
		t.Fatalf("plan\n got %q\nwant %q", got, want)
	}
	c, o, sp := 0, 0, 0
	for pass, groups := range [][]snapGroup{s.groups, s.spliced} {
		for _, sg := range groups {
			for _, sc := range sg.cmus {
				switch {
				case sc.stage == stageColumn:
					c++
				case pass == 0:
					o++
				default:
					sp++
				}
			}
		}
	}
	if len(s.plan.column) != c || len(s.plan.ordered) != o || len(s.plan.spliced) != sp {
		t.Fatalf("dispatch lists of %d / %d / %d CMUs, want %d column, %d ordered, %d spliced",
			len(s.plan.column), len(s.plan.ordered), len(s.plan.spliced), c, o, sp)
	}
	if s.FrameVectorized() != (o+sp == 0) {
		t.Fatalf("FrameVectorized() = %v with %d packet-order CMUs", s.FrameVectorized(), o+sp)
	}
}
