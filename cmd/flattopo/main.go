// Command flattopo inspects a topology: prints its parameters, channel
// census and hop-count profile, or emits the router graph as Graphviz DOT.
//
// Examples:
//
//	flattopo -topo ff -k 8 -n 2
//	flattopo -topo ff -k 4 -n 3 -dot > ff.dot
//	flattopo -topo hypercube -dims 6
//	flattopo -topo torus -k 4 -n 3
package main

import (
	"flag"
	"fmt"
	"os"

	"flatnet"
	"flatnet/internal/spec"
	"flatnet/internal/topo"
)

func main() {
	var (
		topoName = flag.String("topo", "ff", "topology: ff | butterfly | clos | hypercube | torus | ghc")
		k        = flag.Int("k", 8, "ary")
		n        = flag.Int("n", 2, "stages / dimensions+1")
		dims     = flag.Int("dims", 6, "hypercube dimensions")
		taper    = flag.Int("taper", 2, "folded-Clos taper")
		dot      = flag.Bool("dot", false, "emit Graphviz DOT instead of a summary")
	)
	flag.Parse()
	if err := run(*topoName, *k, *n, *dims, *taper, *dot); err != nil {
		fmt.Fprintln(os.Stderr, "flattopo:", err)
		os.Exit(1)
	}
}

// inspectOnly builds the topologies flattopo shows that no simulation
// surface runs: the low-radix torus and the 2-D generalized hypercube.
var inspectOnly = map[string]func(k, n int) (flatnet.Topology, error){
	"torus": func(k, n int) (flatnet.Topology, error) { return flatnet.NewTorus(k, n) },
	"ghc":   func(k, _ int) (flatnet.Topology, error) { return flatnet.NewGHC([]int{k, k}) },
}

func run(topoName string, k, n, dims, taper int, dot bool) error {
	var t flatnet.Topology
	var err error
	if build, ok := inspectOnly[topoName]; ok {
		t, err = build(k, n)
	} else {
		t, err = spec.Spec{Net: topoName, K: k, N: n, Dims: dims, Taper: taper}.Topology()
	}
	if err != nil {
		return err
	}
	g := t.Graph()
	if dot {
		return topo.WriteDOT(os.Stdout, g)
	}
	fmt.Printf("topology:   %s\n", t.Name())
	fmt.Printf("nodes:      %d\n", g.NumNodes)
	fmt.Printf("routers:    %d\n", g.NumRouters())
	fmt.Printf("channels:   %d unidirectional\n", g.CountChannels())
	maxDeg := 0
	for r := 0; r < g.NumRouters(); r++ {
		if d := g.Degree(flatnet.RouterID(r)); d > maxDeg {
			maxDeg = d
		}
	}
	fmt.Printf("max degree: %d ports\n", maxDeg)
	if err := g.Validate(); err != nil {
		return fmt.Errorf("graph INVALID: %w", err)
	}
	fmt.Println("graph:      valid")
	return nil
}
