package controlplane

import (
	"strings"
	"testing"

	"flymon/internal/packet"
)

// TestLayoutFingerprintTracksIndexFunction pins what the fingerprint must
// and must not see: everything that changes which bucket a key lands in
// (group, CMU offset, partition size, register geometry) changes it; the
// partition's base, the task's ID and its name do not.
func TestLayoutFingerprintTracksIndexFunction(t *testing.T) {
	spec := TaskSpec{Name: "t", Key: packet.KeyFiveTuple, Attribute: AttrFrequency, MemBuckets: 4096, D: 3}
	deploy := func(c *Controller, s TaskSpec) *Task {
		t.Helper()
		task, err := c.AddTask(s)
		if err != nil {
			t.Fatal(err)
		}
		return task
	}
	ref := deploy(newTestController(3), spec)

	t.Run("base, ID and name are not layout", func(t *testing.T) {
		c := newTestController(3)
		other := spec
		other.Name, other.Filter = "other", packet.Filter{DstPort: 53}
		deploy(c, other) // group 0, base 0: pushes the next task's base and ID
		moved := spec
		moved.Name, moved.Filter = "moved", packet.Filter{DstPort: 80}
		got := deploy(c, moved)
		if got.Groups[0] != ref.Groups[0] || got.ID == ref.ID {
			t.Fatalf("setup: task landed on groups %v with ID %d", got.Groups, got.ID)
		}
		if got.Fingerprint != ref.Fingerprint {
			t.Fatalf("same group, other base: fingerprint %#x, want %#x", got.Fingerprint, ref.Fingerprint)
		}
	})
	t.Run("another group", func(t *testing.T) {
		c := newTestController(3)
		filler := spec
		filler.Name = "filler"
		deploy(c, filler) // same filter: the next task cannot share its CMUs
		got := deploy(c, spec)
		if got.Groups[0] == ref.Groups[0] {
			t.Fatalf("setup: task stayed on group %d", got.Groups[0])
		}
		if got.Fingerprint == ref.Fingerprint {
			t.Fatal("a task on another group's hash units kept the fingerprint")
		}
	})
	t.Run("another CMU offset", func(t *testing.T) {
		one := spec
		one.D = 1
		a := deploy(newTestController(1), one)
		c := newTestController(1)
		filler := one
		filler.Name = "filler"
		deploy(c, filler) // takes CMU 0; the same filter forces CMU 1
		b := deploy(c, one)
		if a.Fingerprint == b.Fingerprint {
			t.Fatal("a row on another CMU (another selector rotation) kept the fingerprint")
		}
	})
	t.Run("partition size", func(t *testing.T) {
		c := newTestController(3)
		task := deploy(c, spec)
		if _, err := c.ResizeTask(task.ID, 8192); err != nil {
			t.Fatal(err)
		}
		resized, err := c.Task(task.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resized.Fingerprint == ref.Fingerprint {
			t.Fatal("a resized task kept the fingerprint")
		}
	})
	t.Run("register geometry", func(t *testing.T) {
		narrow := deploy(NewController(Config{Groups: 3, Buckets: 65536, BitWidth: 16}), spec)
		if narrow.Fingerprint == ref.Fingerprint {
			t.Fatal("16-bit registers kept the 32-bit fingerprint")
		}
		whole := spec
		whole.MemBuckets = 65536
		big := deploy(newTestController(3), whole)
		small := deploy(NewController(Config{Groups: 3, Buckets: 32768, BitWidth: 32}), whole)
		if big.Buckets == small.Buckets || big.Fingerprint == small.Fingerprint {
			t.Fatalf("Config.Buckets 65536 vs 32768: granted %d vs %d, fingerprints %#x vs %#x",
				big.Buckets, small.Buckets, big.Fingerprint, small.Fingerprint)
		}
	})
}

// TestEnumNamesRoundTrip ties the three spellings of the task grammar
// together: every constant parses back from String() and from its front-end
// word, EnumNames lists exactly those words, and the first value past a
// table neither prints like a constant nor parses.
func TestEnumNamesRoundTrip(t *testing.T) {
	check := func(kind string, n int, str func(int) string, parse func(string) (int, error), words string) {
		t.Helper()
		list := strings.Split(words, "|")
		if len(list) != n {
			t.Fatalf("%s: EnumNames lists %d words for %d constants: %s", kind, len(list), n, words)
		}
		for v := 0; v < n; v++ {
			for _, s := range []string{str(v), strings.ToUpper(str(v)), list[v]} {
				if got, err := parse(s); err != nil || got != v {
					t.Errorf("%s: parse(%q) = %d, %v; want %d", kind, s, got, err, v)
				}
			}
		}
		past := str(n)
		if !strings.HasPrefix(past, kind+"(") {
			t.Errorf("%s: value %d prints %q — a constant without a table row?", kind, n, past)
		}
		if _, err := parse(past); err == nil || !strings.Contains(err.Error(), words) {
			t.Errorf("%s: parse(%q) = %v, want an error listing %s", kind, past, err, words)
		}
	}
	check("Attribute", int(AttrMax)+1,
		func(v int) string { return Attribute(v).String() },
		func(s string) (int, error) { v, err := ParseEnum[Attribute](s); return int(v), err },
		EnumNames[Attribute]())
	check("ParamKind", int(ParamFlowKey)+1,
		func(v int) string { return ParamKind(v).String() },
		func(s string) (int, error) { v, err := ParseEnum[ParamKind](s); return int(v), err },
		EnumNames[ParamKind]())
	check("Algorithm", int(AlgMaxInterval)+1,
		func(v int) string { return Algorithm(v).String() },
		func(s string) (int, error) { v, err := ParseEnum[Algorithm](s); return int(v), err },
		EnumNames[Algorithm]())
}

// BenchmarkLayoutFingerprint prices the fingerprint AddTask computes under
// the controller lock (a three-row single-group task, the common shape).
func BenchmarkLayoutFingerprint(b *testing.B) {
	c := newTestController(3)
	task, err := c.AddTask(TaskSpec{Name: "t", Key: packet.KeyFiveTuple, Attribute: AttrFrequency, MemBuckets: 4096, D: 3})
	if err != nil {
		b.Fatal(err)
	}
	locs := c.pipeline.Locate(task.ID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = layoutFingerprint(locs)
	}
}

var fingerprintSink uint64
