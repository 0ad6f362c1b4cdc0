package controlplane

import (
	"runtime"
	"testing"

	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
)

// TestControllerBacksOnlyWrittenRegisters: a controller costs memory for
// the registers its tasks write, not for the ones it was built with. The
// default data plane (9 groups × 3 CMUs × 65,536 buckets, 6.75 MiB of
// registers if backed up front) runs one five-tuple CMS over three of its
// 27 CMUs: building it, deploying the task, replaying a trace, a
// telemetry scrape and a register read together allocate less than those
// three registers plus 1 MiB, and the scrape reports the full geometry of
// the 24 untouched CMUs, empty, without backing them.
func TestControllerBacksOnlyWrittenRegisters(t *testing.T) {
	const (
		buckets   = 65_536
		regBytes  = buckets * 4
		allowance = 3*regBytes + 1<<20
	)
	tr := mmtrace.FromPackets(trace.Generate(trace.Config{Flows: 2_000, Packets: 20_000, Seed: 5}).Packets)
	reg := telemetry.NewRegistry()
	var before, scraped, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewController(Config{Groups: 9, Buckets: buckets, Workers: 1, Telemetry: reg})
	defer c.Close()
	task, err := c.AddTask(freqSpec("cms", packet.MatchAll, 16_384))
	if err != nil {
		t.Fatal(err)
	}
	c.ReplayTrace(tr)
	runtime.ReadMemStats(&scraped)
	dp := c.TelemetryDataPlane()
	runtime.ReadMemStats(&after)
	scrapeBytes := after.TotalAlloc - scraped.TotalAlloc
	if scrapeBytes >= regBytes {
		t.Fatalf("the scrape allocated %d bytes, a register's worth (%d) or more: it backed a register", scrapeBytes, regBytes)
	}
	rows := readAll(t, c, task.ID)
	runtime.ReadMemStats(&after)
	t.Logf("controller allocated %d bytes in all, the scrape %d", after.TotalAlloc-before.TotalAlloc, scrapeBytes)
	if b := after.TotalAlloc - before.TotalAlloc; b >= allowance {
		t.Fatalf("controller allocated %d bytes, want < %d (three backed registers + 1 MiB)", b, allowance)
	}

	if len(dp.Registers) != 27 {
		t.Fatalf("scrape reported %d registers, want 27", len(dp.Registers))
	}
	untouched := 0
	for _, g := range dp.Registers {
		if g.Buckets != buckets {
			t.Fatalf("group %d CMU %d reports %d buckets, want %d", g.Group, g.CMU, g.Buckets, buckets)
		}
		if g.Occupied == 0 {
			untouched++
		}
	}
	if untouched != 24 {
		t.Fatalf("%d CMUs report 0 occupied, want the 24 the task does not use", untouched)
	}
	var mass uint64
	for _, v := range rows[0] {
		mass += uint64(v)
	}
	if len(rows) != 3 || mass != uint64(tr.Frames()) {
		t.Fatalf("read %d rows, row 0 mass %d; want 3 rows counting all %d packets", len(rows), mass, tr.Frames())
	}
}
