package spec

import (
	"math"
	"reflect"
	"testing"

	"flatnet/internal/topo"
)

// TestTaperedClosMatchesLegacyShapes holds TaperedClos to the two
// folded-Clos shapes it replaces: cmd/flatsim's
// NewFoldedClos(k, k/taper, k, max(1, k/(2·taper))) at n=2 wherever that
// built, and nocd's TaperedClosForNodes(k^n, 2k) at n=2 and 3, including
// which inputs fail.
func TestTaperedClosMatchesLegacyShapes(t *testing.T) {
	for k := 0; k <= 64; k++ {
		for taper := 1; taper <= 4; taper++ {
			legacy, lerr := topo.NewFoldedClos(k, k/taper, k, max(1, k/(2*taper)))
			u, l, m, err := TaperedClos(k, 2, taper)
			if lerr != nil {
				continue // the legacy formula did not build; TaperedClos may
			}
			if err != nil {
				t.Fatalf("k=%d taper=%d: legacy built, TaperedClos: %v", k, taper, err)
			}
			if u != legacy.Uplinks || l != legacy.Leaves || m != legacy.Middles {
				t.Errorf("k=%d taper=%d: shape (%d,%d,%d), legacy (%d,%d,%d)",
					k, taper, u, l, m, legacy.Uplinks, legacy.Leaves, legacy.Middles)
			}
		}
	}
	for n := 2; n <= 3; n++ {
		for k := 0; k <= 24; k++ {
			nodes := 1
			for i := 0; i < n; i++ {
				nodes *= k
			}
			legacy, lerr := topo.TaperedClosForNodes(nodes, 2*k)
			u, l, m, err := TaperedClos(k, n, 2)
			if (lerr != nil) != (err != nil) {
				t.Fatalf("k=%d n=%d: legacy err %v, TaperedClos err %v", k, n, lerr, err)
			}
			if err == nil && (u != legacy.Uplinks || l != legacy.Leaves || m != legacy.Middles) {
				t.Errorf("k=%d n=%d: shape (%d,%d,%d), legacy (%d,%d,%d)",
					k, n, u, l, m, legacy.Uplinks, legacy.Leaves, legacy.Middles)
			}
		}
	}
	if _, _, _, err := TaperedClos(8, 2, 0); err == nil {
		t.Error("taper 0 accepted")
	}
}

// familySpecs is one small instance of every family.
var familySpecs = []Spec{
	{Net: "flatfly", K: 4, N: 2, Alg: "ugal"},
	{Net: "butterfly", K: 4, N: 3},
	{Net: "foldedclos", K: 4, N: 3, Taper: 2},
	{Net: "foldedclos", K: 4, Uplinks: 2, Leaves: 4, Middles: 1},
	{Net: "hypercube", N: 5},
	{Net: "slimfly", Q: 5},
	{Net: "dragonfly", H: 2},
}

// TestNodesMatchesGraph checks the parameter-only terminal count against
// the built graph, and that Normalize is idempotent.
func TestNodesMatchesGraph(t *testing.T) {
	for _, s := range familySpecs {
		g, alg, err := s.Build()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if got := s.Nodes(); got != g.NumNodes {
			t.Errorf("%s: Nodes() = %d, graph has %d", s.Net, got, g.NumNodes)
		}
		if alg.Name() == "" {
			t.Errorf("%s: unnamed algorithm", s.Net)
		}
		n := s.Normalize()
		if again := n.Normalize(); !reflect.DeepEqual(again, n) {
			t.Errorf("%s: Normalize not idempotent: %+v then %+v", s.Net, n, again)
		}
		src, err := s.Source()
		if err != nil {
			t.Fatalf("%s: source: %v", s.Net, err)
		}
		if src.Name() != "uniform" {
			t.Errorf("%s: default workload %q, want uniform", s.Net, src.Name())
		}
	}
}

// TestNormalizeDropsForeignParams checks that flag defaults a family
// does not read (as cmd/flatsim always passes) leave no trace, and that
// the short family names and defaults resolve.
func TestNormalizeDropsForeignParams(t *testing.T) {
	noisy := Spec{Net: "hypercube", K: 32, N: 2, Dims: 4, Taper: 2, Q: 5, H: 2, Pattern: "UR", Seed: 3}
	want := Spec{Net: "hypercube", N: 4, ChannelLatency: 1, Multiplicity: 1, Alg: "e-cube", Pattern: "uniform", Seed: 3}
	if got := noisy.Normalize(); !reflect.DeepEqual(got, want) {
		t.Errorf("hypercube: %+v, want %+v", got, want)
	}
	got := Spec{Net: "clos", K: 4, N: 2, Dims: 10, Taper: 2, Q: 5, H: 2}.Normalize()
	want = Spec{Net: "foldedclos", K: 4, Uplinks: 2, Leaves: 4, Middles: 1, ChannelLatency: 1, Multiplicity: 1,
		Alg: "adaptive sequential", Pattern: "uniform", Conc: 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clos: %+v, want %+v", got, want)
	}
	got = Spec{Net: "df", K: 32, N: 2, H: 2}.Normalize()
	if got.A != 4 || got.P != 2 || got.Conc != 8 || got.K != 0 || got.Alg != "min" {
		t.Errorf("df: %+v", got)
	}
	if OnlyAlg("clos") != "adaptive sequential" || OnlyAlg("ff") != "" || OnlyAlg("bogus") != "" {
		t.Error("OnlyAlg")
	}
}

func TestBuildRejects(t *testing.T) {
	bad := []Spec{
		{Net: "bogus"},
		{Net: "butterfly", K: 4, N: 2, Alg: "clos"},
		{Net: "flatfly", K: 4, N: 2, Alg: "bogus"},
		{Net: "foldedclos", K: 4, N: 2},           // no shape, no taper
		{Net: "foldedclos", K: 4, N: 1, Taper: 2}, // one leaf
	}
	for _, s := range bad {
		if _, _, err := s.Build(); err == nil {
			t.Errorf("%+v built", s)
		}
	}
	if _, err := (Spec{Net: "flatfly", K: 4, N: 2, Pattern: "bogus"}).Source(); err == nil {
		t.Error("unknown pattern accepted")
	}
}

// TestNodesSaturates checks sizes far past any cap neither overflow nor
// build anything.
func TestNodesSaturates(t *testing.T) {
	cases := []Spec{
		{Net: "flatfly", K: 1024, N: 20},
		{Net: "butterfly", K: 1024, N: 7},
		{Net: "foldedclos", K: 1024, N: 20, Taper: 2},
		{Net: "hypercube", N: 80},
		{Net: "slimfly", Q: 1 << 40},
		{Net: "dragonfly", H: 1 << 40},
	}
	for _, s := range cases {
		if got := s.Nodes(); got != math.MaxInt {
			t.Errorf("%s: Nodes() = %d, want saturation", s.Net, got)
		}
	}
	if got := (Spec{Net: "flatfly", K: 32, N: 3}).Nodes(); got != 32768 {
		t.Errorf("32-ary 3-flat: %d nodes", got)
	}
}
