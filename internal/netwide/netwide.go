// Package netwide implements network-wide measurement over a fleet of
// FlyMon switches — the SDM-controller use case the paper positions FlyMon
// underneath (§3.4). The same task spec is deployed on every switch;
// controller construction, compressed-key configuration, and placement are
// deterministic, so identically configured switches fed the same
// deployments compute identical hash mappings — which every deployment and
// readout proves with a layout fingerprint before the central controller
// merges per-switch register readouts element-wise (add for counters, max
// for MAX/rank registers, OR for bitmaps) and answers queries about the
// union of all ingress traffic.
//
// There is one fleet, RemoteFleet: switches are flymond daemons behind the
// control channel, reached over TCP (NewRemoteFleetOptions) or, for a fleet
// living in this process, over an in-memory transport (NewLoopbackFleet).
// Either way a query is the same RPC fan-out into the same merge tree. Every
// fleet task is an epoch task: each switch freezes an epoch and diverts its
// traffic to a fresh copy, and the fleet merges what the switches froze.
// LivenessManager is the separate, standalone failure detector (BFD-style
// keepalive sessions) that flymonctl watch runs.
//
// The deployment model follows the standard network-wide measurement
// assumption: each packet is measured at exactly one switch (its ingress),
// so counter merges see disjoint streams; HLL/Bloom merges tolerate
// duplicates anyway.
package netwide

import (
	"fmt"

	"flymon/internal/controlplane"
	"flymon/internal/faultnet"
	"flymon/internal/rpc"
)

// NewLoopbackFleet builds n identically configured switches inside this
// process — each a controller behind an rpc.Server on an in-memory
// listener — and the RemoteFleet over them. The controllers are the
// ingress handles (feed them packets); stop closes the clients and the
// servers.
func NewLoopbackFleet(n int, cfg controlplane.Config, opts FleetOptions) (fleet *RemoteFleet, switches []*controlplane.Controller, stop func()) {
	if n < 1 {
		n = 1
	}
	switches = make([]*controlplane.Controller, n)
	servers := make([]*rpc.Server, n)
	clients := make([]*rpc.Client, n)
	for i := range switches {
		switches[i] = controlplane.NewController(cfg)
		servers[i] = rpc.NewServer(switches[i], nil)
		ln := faultnet.NewMemListener(fmt.Sprintf("switch%d", i))
		servers[i].Serve(ln)
		c, err := rpc.DialOptions(ln.Addr().String(), rpc.Options{Dialer: ln.Dial})
		if err != nil {
			panic(err) // a listener just put in service cannot refuse: a bug
		}
		clients[i] = c
	}
	fleet = NewRemoteFleetOptions(clients, cfg, opts)
	return fleet, switches, func() {
		for i := range clients {
			clients[i].Close()
			servers[i].Close()
		}
	}
}
