package main

import "time"

// The probe is a fixed pure-Go kernel with the two ingredients of FlyMon's
// per-packet work — a table-driven CRC over a 13-byte key and three
// scattered 32-bit increments into 2 MiB of counters, the footprint of
// ingest_steady's live register rows — and none of FlyMon's code. Timed
// immediately before and after a round it says how fast this machine is
// *right now*: the host flips between a fast and a slow mode (x1.2-1.3,
// NOISE.md) and the probe flips in step with the system under test, so
// dividing by it takes the host out of the numbers.
//
// A reading runs the kernel twice and keeps the second time. The first
// pass brings the probe's own working set back after the round evicted
// it; without it the probe would time what the workload did to the cache
// (after a fleet_query cycle the cold pass is 15-40 % slower than the warm
// one, and varies with the workload's code) instead of the machine.

const (
	probeKeys  = 1 << 15     // 416 KiB of keys
	probeWords = 2 << 20 / 4 // 2 MiB of uint32 counters

	// probeRefNs is the probe's duration at reference machine speed: the
	// fast-mode median on the 2-vCPU host NOISE.md describes. Every
	// normalised metric reads "as if the probe took exactly this long".
	// Changing it rescales every normalised number; never do so in a PR
	// that also claims a gain.
	probeRefNs = 800_000
)

type probe struct {
	table [256]uint32
	keys  [][13]byte
	arr   []uint32
	sum   uint32 // xor of the last pass's digests: proves the work is fixed
}

func newProbe() *probe {
	p := &probe{keys: make([][13]byte, probeKeys), arr: make([]uint32, probeWords)}
	for i := range p.table {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			c = c>>1 ^ 0xEDB88320&-(c&1)
		}
		p.table[i] = c
	}
	x := uint64(0x9E3779B97F4A7C15) // fixed: the probe never sees -seed
	for i := range p.keys {
		for j := range p.keys[i] {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			p.keys[i][j] = byte(x >> 32)
		}
	}
	return p
}

// pass executes the kernel once and returns its wall time.
func (p *probe) pass() time.Duration {
	start := time.Now()
	var sum uint32
	arr := p.arr
	for i := range p.keys {
		crc := ^uint32(0)
		for _, b := range p.keys[i] {
			crc = p.table[byte(crc)^b] ^ crc>>8
		}
		sum ^= crc
		arr[crc%probeWords]++
		arr[(crc*0x9E3779B1)%probeWords]++
		arr[(crc*0x85EBCA6B)%probeWords]++
	}
	p.sum = sum
	return time.Since(start)
}

// read is one probe reading: a warming pass, then the timed one.
func (p *probe) read() time.Duration {
	p.pass()
	return p.pass()
}
