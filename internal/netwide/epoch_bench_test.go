package netwide

import (
	"testing"

	"flymon/internal/controlplane"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

// BenchmarkEpochCycle times one fleet_query cycle's control plane: eight
// daemons on 127.0.0.1 TCP, each a Groups 9 × 64 Ki-bucket switch holding
// one five-tuple CMS (D 3 × 16,384) epoch task. Each iteration ingests
// 4,096 packets per daemon untimed, then times RotateEpoch and one
// EstimateKeyEpoch on the epoch it ended.
func BenchmarkEpochCycle(b *testing.B) {
	const daemons, perDaemon = 8, 4096
	cfg := controlplane.Config{Groups: 9, Buckets: 65536, BitWidth: 32, Workers: 1}
	ctrls, clients := startDaemons(b, daemons, cfg)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
	spec := cmsSpec("freq")
	if err := fleet.DeployEpoch(spec); err != nil {
		b.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 20_000, Packets: daemons * perDaemon, ZipfS: 1.1, Seed: 1})
	files := make([]*mmtrace.Trace, daemons)
	for d := range files {
		files[d] = mmtrace.FromPackets(tr.Packets[d*perDaemon : (d+1)*perDaemon])
	}
	key := packet.KeyFiveTuple.Extract(&tr.Packets[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for d, ctrl := range ctrls {
			ctrl.ReplayTrace(files[(d+i)%daemons])
		}
		b.StartTimer()
		epoch, err := fleet.RotateEpoch(spec.Name)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := fleet.EstimateKeyEpoch(spec.Name, epoch, key, EpochQuery{}); err != nil {
			b.Fatal(err)
		}
	}
}
