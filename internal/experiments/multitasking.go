package experiments

import (
	"fmt"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

// Multitasking reproduces §5.1's "Dynamic memory and multitasking"
// paragraph as a table: one CMU Group is split into 32 partitions per CMU
// and loaded with up to 96 isolated measurement tasks (32 × 3), each with
// its own traffic filter. The table reports, per load level, the total
// deployment delay, the per-task memory, and a cross-task isolation check
// (every task counts exactly its own traffic).
func Multitasking(scale Scale, seed int64) *Table {
	t := &Table{
		Title:  "§5.1 — Multitasking: isolated tasks on one CMU Group (32 partitions × 3 CMUs)",
		Header: []string{"Tasks", "Buckets/task", "Total deploy delay (ms)", "Mean delay (ms)", "Isolation errors"},
	}
	_, packets := scale.workload()
	packets /= 8

	for _, n := range []int{3, 12, 48, 96} {
		ctrl := controlplane.NewController(controlplane.Config{Groups: 1, Buckets: 65536, BitWidth: 32})
		var total time.Duration
		perTask := 65536 / 32
		for i := 0; i < n; i++ {
			task, err := ctrl.AddTask(controlplane.TaskSpec{
				Name:       fmt.Sprintf("tenant-%d", i),
				Key:        packet.KeyFiveTuple,
				Attribute:  controlplane.AttrFrequency,
				MemBuckets: perTask,
				D:          1,
				Filter:     packet.Filter{DstPort: uint16(i + 1)},
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: multitasking task %d: %v", i, err))
			}
			total += task.Delay
		}

		// Drive traffic across all tenants and verify isolation: each
		// task's whole register mass must equal its own packet count. The
		// replay spreads spans over the controller's pool (all cores) —
		// per-bucket atomic adds make the mass check exact regardless of
		// packet interleaving.
		tr := trace.Generate(trace.Config{Flows: 2000, Packets: packets, Seed: seed})
		perTenant := make([]uint64, n)
		for i := range tr.Packets {
			tenant := i % n
			tr.Packets[i].DstPort = uint16(tenant + 1)
			perTenant[tenant]++
		}
		ctrl.ReplayTrace(mmtrace.FromPackets(tr.Packets))
		isolationErrors := 0
		for i := 0; i < n; i++ {
			rows, err := ctrl.ReadRegisters(i + 1)
			if err != nil {
				panic(err)
			}
			var mass uint64
			for _, row := range rows {
				for _, v := range row {
					mass += uint64(v)
				}
			}
			if mass != perTenant[i] {
				isolationErrors++
			}
		}
		ctrl.Close()

		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(perTask),
			f2(float64(total.Microseconds()) / 1000),
			f2(float64(total.Microseconds()) / 1000 / float64(n)),
			itoa(isolationErrors),
		})
	}
	t.Notes = append(t.Notes,
		"96 = 32 partitions × 3 CMUs, the paper's per-group multitasking bound; every deployment is a runtime rule install",
		"isolation check: each task's register mass equals exactly its own tenant's packet count")
	return t
}
