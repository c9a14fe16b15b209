package nocsvc

import (
	"flatnet/internal/sim"
	"flatnet/internal/spec"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// Session parameter defaults, applied by normalize.
const (
	defaultBufPerPort = 32
	defaultPacketSize = 1
	defaultFlitBytes  = 8
	defaultWarmup     = 1000
	defaultBurstLen   = 16
)

// normalize fills an OpenParams' defaulted fields in place.
func (p *OpenParams) normalize() {
	if p.BufPerPort == 0 {
		p.BufPerPort = defaultBufPerPort
	}
	if p.PacketSize == 0 {
		p.PacketSize = defaultPacketSize
	}
	if p.FlitBytes == 0 {
		p.FlitBytes = defaultFlitBytes
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	switch {
	case p.Warmup == 0:
		p.Warmup = defaultWarmup
	case p.Warmup < 0:
		p.Warmup = 0
	}
	if p.Pattern == "" {
		p.Pattern = "uniform"
	} else if canon, ok := traffic.Canonical(p.Pattern); ok {
		p.Pattern = canon
	}
	if p.BurstPeak > 0 && p.BurstLen == 0 {
		p.BurstLen = defaultBurstLen
	}
}

// Spec returns the session's network, routing algorithm and background
// workload as a spec.Spec. A foldedclos is the paper's §3.3
// equal-bisection Clos: spec.TaperedClos(K, N, 2), K^N terminals.
func (p OpenParams) Spec() spec.Spec {
	return spec.Spec{
		Net: p.Topology, K: p.K, N: p.N, Taper: 2, Alg: p.Routing,
		Pattern: p.Pattern, Hot: p.Hot, HotFraction: p.HotFraction,
		BurstPeak: p.BurstPeak, BurstLen: p.BurstLen, Seed: p.Seed,
	}
}

// buildNetwork materializes a session's channel graph, routing
// algorithm, simulator configuration and background workload from
// normalized OpenParams. maxNodes is the server's admission-control cap
// on topology size (0 means no cap); it is checked against the spec's
// parameter-only terminal count before anything is constructed. A
// workload source carries no identity in a snapshot beyond its name and
// mutable state, so a clone rebuilds an identical one from the same
// params.
func buildNetwork(p OpenParams, maxNodes int) (*topo.Graph, sim.Algorithm, sim.Config, traffic.Source, *Error) {
	s := p.Spec()
	if n := s.Nodes(); maxNodes > 0 && n > maxNodes {
		return nil, nil, sim.Config{}, nil, errf(CodeBadRequest,
			"open: topology has %d terminals, above the server cap of %d", n, maxNodes)
	}
	g, alg, err := s.Build()
	if err != nil {
		return nil, nil, sim.Config{}, nil, errf(CodeBadRequest, "open: %v", err)
	}
	src, err := s.Source()
	if err != nil {
		return nil, nil, sim.Config{}, nil, errf(CodeBadRequest, "open: workload: %v", err)
	}
	cfg := sim.Config{
		Seed:       p.Seed,
		BufPerPort: p.BufPerPort,
		PacketSize: p.PacketSize,
	}
	return g, alg, cfg, src, nil
}

// packetsFor converts a transfer size in bytes into whole packets given
// the session's flit geometry. A zero-byte transfer still occupies one
// packet (the message exists even if its payload is empty).
func packetsFor(bytes, flitBytes, packetSize int) int {
	flits := (bytes + flitBytes - 1) / flitBytes
	if flits < 1 {
		flits = 1
	}
	packets := (flits + packetSize - 1) / packetSize
	if packets < 1 {
		packets = 1
	}
	return packets
}
