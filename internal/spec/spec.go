// Package spec is the one construction path from a network description
// to a simulator-ready network: every surface (cmd/flatsim flags,
// sweep.Job, nocd's open_session params) copies its fields into a Spec,
// and the Spec alone decides what a family name and its parameters
// mean. The family table below is the only place a topology family is
// defined.
package spec

import (
	"cmp"
	"fmt"
	"math"

	"flatnet/internal/core"
	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// Spec describes one network, its routing algorithm and its workload.
// The zero values of optional fields select each family's defaults;
// Normalize makes them explicit.
type Spec struct {
	// Net is the family: "flatfly", "butterfly", "foldedclos",
	// "hypercube", "slimfly" or "dragonfly" (or the short forms "ff",
	// "clos", "sf", "df").
	Net string
	// K and N are the ary and dimension count (flatfly, butterfly:
	// K^N terminals; foldedclos: K terminals per leaf; hypercube: N
	// dimensions).
	K, N int
	// Dims, when set, is the hypercube dimension count (it overrides N).
	Dims int
	// Uplinks, Leaves and Middles give a folded Clos explicitly; when
	// all are zero the shape is TaperedClos(K, N, Taper).
	Uplinks, Leaves, Middles int
	Taper                    int
	// Q is the Slim Fly field size; A and H are the dragonfly routers
	// per group (0 means 2H) and global channels per router; P is the
	// slimfly/dragonfly terminals per router (0 means the balanced
	// default).
	Q, A, H, P int
	// ChannelLatency and Multiplicity shape flatfly channels (0 means 1).
	ChannelLatency, Multiplicity int

	// Alg names the routing algorithm in the family's vocabulary; ""
	// selects the family default.
	Alg string
	// Pattern names a traffic-registry pattern ("" means uniform).
	Pattern string
	// Conc is the group concentration of the group patterns (0 means
	// the family's terminals per router group).
	Conc int
	// Hot and HotFraction parameterize hotspot and incast.
	Hot         []int
	HotFraction float64
	// BurstPeak, when set, selects on/off arrivals bursting at BurstPeak
	// with mean burst length BurstLen (0 means 16); otherwise arrivals
	// are Bernoulli.
	BurstPeak, BurstLen float64
	// Seed drives the seeded patterns.
	Seed uint64
}

// family is everything the spec knows about one topology family.
type family struct {
	// alg is the default routing algorithm; only marks it as the sole one.
	alg  string
	only bool
	// keep copies the parameters the family reads from in to out and
	// returns its group concentration (terminals per router group; 0
	// reads as one terminal per group).
	keep func(out *Spec, in Spec) (conc int)
	// nodes counts terminals from normalized parameters, saturating at
	// math.MaxInt.
	nodes    func(s Spec) int
	topology func(s Spec) (topo.Topology, error)
	route    func(alg string, t topo.Topology) (sim.Algorithm, error)
	params   func(s Spec) string
}

var aliases = map[string]string{"ff": "flatfly", "clos": "foldedclos", "sf": "slimfly", "df": "dragonfly"}

var families = map[string]family{
	"flatfly": {
		alg: "min",
		keep: func(out *Spec, in Spec) int {
			out.K, out.N = in.K, in.N
			out.ChannelLatency, out.Multiplicity = cmp.Or(in.ChannelLatency, 1), cmp.Or(in.Multiplicity, 1)
			return in.K
		},
		nodes: func(s Spec) int { return satPow(s.K, s.N) },
		topology: func(s Spec) (topo.Topology, error) {
			return core.NewFlatFly(s.K, s.N, core.WithChannelLatency(s.ChannelLatency), core.WithMultiplicity(s.Multiplicity))
		},
		route: func(alg string, t topo.Topology) (sim.Algorithm, error) {
			return routing.NewFlatFlyAlgorithm(alg, t.(*core.FlatFly))
		},
		params: func(s Spec) string { return fmt.Sprintf("k=%d n=%d", s.K, s.N) },
	},
	"butterfly": {
		alg: "destination", only: true,
		keep: func(out *Spec, in Spec) int {
			out.K, out.N = in.K, in.N
			return in.K
		},
		nodes:    func(s Spec) int { return satPow(s.K, s.N) },
		topology: func(s Spec) (topo.Topology, error) { return topo.NewButterfly(s.K, s.N) },
		route: func(_ string, t topo.Topology) (sim.Algorithm, error) {
			return routing.NewButterflyDest(t.(*topo.Butterfly)), nil
		},
		params: func(s Spec) string { return fmt.Sprintf("k=%d n=%d", s.K, s.N) },
	},
	"foldedclos": {
		alg: "adaptive sequential", only: true,
		keep: func(out *Spec, in Spec) int {
			out.K, out.Uplinks, out.Leaves, out.Middles = in.K, in.Uplinks, in.Leaves, in.Middles
			if in.Uplinks == 0 && in.Leaves == 0 && in.Middles == 0 {
				var err error
				if out.Uplinks, out.Leaves, out.Middles, err = TaperedClos(in.K, in.N, in.Taper); err != nil {
					out.N, out.Taper = in.N, in.Taper // so Topology reports the error
				}
			}
			return in.K
		},
		nodes: func(s Spec) int { return satMul(s.K, s.Leaves) },
		topology: func(s Spec) (topo.Topology, error) {
			if s.Uplinks == 0 && s.Leaves == 0 && s.Middles == 0 {
				if _, _, _, err := TaperedClos(s.K, s.N, s.Taper); err != nil {
					return nil, err
				}
			}
			return topo.NewFoldedClos(s.K, s.Uplinks, s.Leaves, s.Middles)
		},
		route: func(_ string, t topo.Topology) (sim.Algorithm, error) {
			return routing.NewFoldedClosAdaptive(t.(*topo.FoldedClos)), nil
		},
		params: func(s Spec) string {
			return fmt.Sprintf("k=%d uplinks=%d leaves=%d middles=%d", s.K, s.Uplinks, s.Leaves, s.Middles)
		},
	},
	"hypercube": {
		alg: "e-cube", only: true,
		keep: func(out *Spec, in Spec) int {
			out.N = cmp.Or(in.Dims, in.N)
			return 0
		},
		nodes:    func(s Spec) int { return satPow(2, s.N) },
		topology: func(s Spec) (topo.Topology, error) { return topo.NewHypercube(s.N) },
		route: func(_ string, t topo.Topology) (sim.Algorithm, error) {
			return routing.NewECube(t.(*topo.Hypercube)), nil
		},
		params: func(s Spec) string { return fmt.Sprintf("n=%d", s.N) },
	},
	"slimfly": {
		alg: "min",
		keep: func(out *Spec, in Spec) int {
			out.Q, out.P = in.Q, cmp.Or(in.P, topo.SlimFlyDefaultConc(in.Q))
			return out.P
		},
		nodes:    func(s Spec) int { return satMul(satMul(2, satMul(s.Q, s.Q)), s.P) },
		topology: func(s Spec) (topo.Topology, error) { return topo.NewSlimFly(s.Q, s.P) },
		route: func(alg string, t topo.Topology) (sim.Algorithm, error) {
			return routing.NewSlimFlyAlgorithm(alg, t.(*topo.SlimFly))
		},
		params: func(s Spec) string { return fmt.Sprintf("q=%d p=%d", s.Q, s.P) },
	},
	"dragonfly": {
		alg: "min",
		keep: func(out *Spec, in Spec) int {
			out.H, out.A, out.P = in.H, cmp.Or(in.A, 2*in.H), cmp.Or(in.P, in.H)
			// One group's terminals: what makes worstcase the dragonfly
			// adversary.
			return satMul(out.A, out.P)
		},
		nodes: func(s Spec) int {
			groups := min(satMul(s.A, s.H), math.MaxInt-1) + 1
			return satMul(satMul(s.P, s.A), groups)
		},
		topology: func(s Spec) (topo.Topology, error) { return topo.NewDragonfly(s.P, s.A, s.H) },
		route: func(alg string, t topo.Topology) (sim.Algorithm, error) {
			return routing.NewDragonflyAlgorithm(alg, t.(*topo.Dragonfly))
		},
		params: func(s Spec) string { return fmt.Sprintf("h=%d a=%d p=%d", s.H, s.A, s.P) },
	},
}

// OnlyAlg returns the routing algorithm of a family that has exactly
// one, or "" when the family offers a choice (or is unknown).
func OnlyAlg(net string) string {
	if f := families[cmp.Or(aliases[net], net)]; f.only {
		return f.alg
	}
	return ""
}

// Normalize returns the spec with the family name canonicalized, every
// defaulted field made explicit, and the parameters the family does not
// read cleared, so two specs of the same network compare equal whatever
// surface produced them. An unknown family is returned unchanged.
func (s Spec) Normalize() Spec {
	net := cmp.Or(aliases[s.Net], s.Net)
	f, ok := families[net]
	if !ok {
		return s
	}
	out := Spec{
		Net: net, Alg: cmp.Or(s.Alg, f.alg), Pattern: cmp.Or(s.Pattern, "uniform"),
		Hot: s.Hot, HotFraction: s.HotFraction, BurstPeak: s.BurstPeak, Seed: s.Seed,
		ChannelLatency: 1, Multiplicity: 1,
	}
	conc := f.keep(&out, s)
	out.Conc = cmp.Or(s.Conc, conc)
	if canon, ok := traffic.Canonical(out.Pattern); ok {
		out.Pattern = canon
	}
	if out.BurstPeak > 0 { // Bernoulli arrivals have no burst length
		out.BurstLen = cmp.Or(s.BurstLen, 16)
	}
	return out
}

// resolve normalizes the spec and looks up its family.
func (s Spec) resolve() (Spec, family, error) {
	s = s.Normalize()
	f, ok := families[s.Net]
	if !ok {
		return s, f, fmt.Errorf("spec: unknown network %q", s.Net)
	}
	return s, f, nil
}

// Nodes returns the terminal count, computed from the parameters alone
// (no graph is built) and saturating at math.MaxInt, so a size cap can
// be checked before any construction. Unknown families report 0.
func (s Spec) Nodes() int {
	s, f, err := s.resolve()
	if err != nil {
		return 0
	}
	return f.nodes(s)
}

// Params renders the parameters the family reads, e.g. "k=32 n=2".
func (s Spec) Params() string {
	s, f, err := s.resolve()
	if err != nil {
		return ""
	}
	return f.params(s)
}

// Topology constructs the spec's topology alone; the analytic paths
// need no routing algorithm or workload.
func (s Spec) Topology() (topo.Topology, error) {
	s, f, err := s.resolve()
	if err != nil {
		return nil, err
	}
	return f.topology(s)
}

// Build constructs the spec's channel graph and routing algorithm.
func (s Spec) Build() (*topo.Graph, sim.Algorithm, error) {
	s, f, err := s.resolve()
	if err != nil {
		return nil, nil, err
	}
	if f.only && s.Alg != f.alg {
		return nil, nil, fmt.Errorf("spec: %s supports alg %q, not %q", s.Net, f.alg, s.Alg)
	}
	t, err := f.topology(s)
	if err != nil {
		return nil, nil, err
	}
	alg, err := f.route(s.Alg, t)
	if err != nil {
		return nil, nil, err
	}
	return t.Graph(), alg, nil
}

// Destinations builds the spec's destination pattern from the traffic
// registry for its Nodes() terminals: group patterns use Conc, hotspot
// and incast use Hot and HotFraction, seeded patterns draw from Seed.
// An unknown name surfaces as a *traffic.UnknownPatternError.
func (s Spec) Destinations() (traffic.Pattern, error) {
	s = s.Normalize()
	hot := make([]topo.NodeID, len(s.Hot))
	for i, h := range s.Hot {
		hot[i] = topo.NodeID(h)
	}
	return traffic.Build(s.Pattern, traffic.BuildCtx{
		Nodes:         s.Nodes(),
		Seed:          s.Seed,
		Concentration: s.Conc,
		HotSet:        hot,
		HotFraction:   s.HotFraction,
	})
}

// Source builds the spec's workload: its Destinations wrapped by
// Arrivals.
func (s Spec) Source() (traffic.Source, error) {
	pat, err := s.Destinations()
	if err != nil {
		return nil, err
	}
	return s.Arrivals(pat)
}

// Arrivals wraps a destination pattern in the spec's arrival process:
// on/off when BurstPeak is set, Bernoulli otherwise.
func (s Spec) Arrivals(pat traffic.Pattern) (traffic.Source, error) {
	s = s.Normalize()
	if s.BurstPeak > 0 {
		return traffic.NewOnOff(pat, s.BurstPeak, s.BurstLen)
	}
	return traffic.NewBernoulli(pat), nil
}

// TaperedClos returns the folded-Clos shape the repository compares
// against (§3.3): k terminals and k/taper uplinks per leaf, k^(n-1)
// leaves (so k^n terminals), and max(1, leaves·uplinks/2k) middle
// routers — the total uplinks spread over radix-2k middles — lowered
// until it divides the uplinks. taper 2 gives the equal-bisection Clos.
func TaperedClos(k, n, taper int) (uplinks, leaves, middles int, err error) {
	if taper < 1 {
		return 0, 0, 0, fmt.Errorf("spec: folded-Clos taper must be >= 1, got %d", taper)
	}
	uplinks = k / taper
	if k < 1 || uplinks < 1 || n < 2 {
		return 0, 0, 0, fmt.Errorf("spec: cannot build a folded Clos with k=%d n=%d taper=%d", k, n, taper)
	}
	leaves = satPow(k, n-1)
	if leaves < 2 {
		return 0, 0, 0, fmt.Errorf("spec: folded Clos with k=%d n=%d has fewer than 2 leaves", k, n)
	}
	// No divisor of uplinks exceeds it, so start the search there.
	middles = min(max(1, satMul(leaves, uplinks)/(2*k)), uplinks)
	for uplinks%middles != 0 {
		middles--
	}
	return uplinks, leaves, middles, nil
}

// satMul returns a*b, saturating at math.MaxInt; a non-positive operand
// yields 0 (no terminals).
func satMul(a, b int) int {
	switch {
	case a <= 0 || b <= 0:
		return 0
	case a > math.MaxInt/b:
		return math.MaxInt
	}
	return a * b
}

// satPow returns k^n, saturating at math.MaxInt.
func satPow(k, n int) int {
	v := 1
	for i := 0; i < n && v > 0 && v < math.MaxInt; i++ {
		v = satMul(v, k)
	}
	return v
}
