package main

import (
	"net"
	"reflect"
	"testing"

	"flatnet"
	"flatnet/internal/nocsvc"
	"flatnet/internal/sweep"
	"flatnet/nocsvc/client"
)

// flagDefaults is runOpts as flag.Parse leaves it with no flags given.
func flagDefaults() runOpts {
	return runOpts{
		topo: "ff", k: 32, n: 2, dims: 10, taper: 2, q: 5, gh: 2,
		alg: "clos", pattern: "uniform", burstLen: 16, load: 0.5,
		chunk: 1, warmup: 1000, measure: 1000, seed: 1, buf: 32,
		traceCap: 1 << 16, workers: 1,
	}
}

// TestSurfacesAgree enters one network per family through each surface
// that can express it — flatsim's flags, a sweep.Job and (for nocd's
// four families) open_session params — and checks they mean the same
// thing: equal normalized specs, the same router and channel census and
// algorithm, and, for one load point, a flatsim run whose result equals
// sweep.Job.Run's.
func TestSurfacesAgree(t *testing.T) {
	cases := []struct {
		flags func(o *runOpts)
		job   sweep.Job
		open  *nocsvc.OpenParams // nil: nocd does not offer the family
	}{
		{
			func(o *runOpts) { o.topo, o.k, o.alg = "ff", 4, "ugal" },
			sweep.Job{Net: "flatfly", K: 4, N: 2, Alg: "ugal"},
			&nocsvc.OpenParams{Topology: "flatfly", K: 4, N: 2, Routing: "ugal"},
		},
		{
			func(o *runOpts) { o.topo, o.k = "butterfly", 4 },
			sweep.Job{Net: "butterfly", K: 4, N: 2, Alg: "destination"},
			&nocsvc.OpenParams{Topology: "butterfly", K: 4, N: 2},
		},
		{
			func(o *runOpts) { o.topo, o.k = "clos", 4 },
			sweep.Job{Net: "foldedclos", K: 4, Uplinks: 2, Leaves: 4, Middles: 1, Alg: "adaptive sequential"},
			&nocsvc.OpenParams{Topology: "foldedclos", K: 4, N: 2},
		},
		{
			func(o *runOpts) { o.topo, o.dims = "hypercube", 4 },
			sweep.Job{Net: "hypercube", N: 4, Alg: "e-cube"},
			&nocsvc.OpenParams{Topology: "hypercube", N: 4},
		},
		{
			func(o *runOpts) { o.topo, o.alg = "sf", "min" },
			sweep.Job{Net: "slimfly", Q: 5, Alg: "min"},
			nil,
		},
		{
			func(o *runOpts) { o.topo, o.alg = "df", "ugal" },
			sweep.Job{Net: "dragonfly", H: 2, Alg: "ugal"},
			nil,
		},
	}
	srv := nocsvc.NewServer(nocsvc.ServerConfig{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // exits on Close
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range cases {
		o := flagDefaults()
		o.pattern, o.load, o.seed, o.warmup, o.measure = "worstcase", 0.2, 3, 100, 100
		tc.flags(&o)
		job := tc.job
		job.Pattern, job.Load, job.Seed, job.Warmup, job.Measure = "WC", 0.2, 3, 100, 100

		fs, err := o.spec()
		if err != nil {
			t.Fatal(err)
		}
		want := fs.Normalize()
		if got := job.Normalize().Spec().Normalize(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sweep.Job spec %+v, flatsim spec %+v", o.topo, got, want)
		}
		g, alg, err := fs.Build()
		if err != nil {
			t.Fatalf("%s: %v", o.topo, err)
		}
		jg, jalg, err := job.Spec().Build()
		if err != nil {
			t.Fatalf("%s: job: %v", o.topo, err)
		}
		if jg.NumNodes != g.NumNodes || jg.NumRouters() != g.NumRouters() ||
			jg.CountChannels() != g.CountChannels() || jalg.Name() != alg.Name() {
			t.Errorf("%s: sweep.Job builds %d nodes, %d routers, %d channels, %s; flatsim %d, %d, %d, %s",
				o.topo, jg.NumNodes, jg.NumRouters(), jg.CountChannels(), jalg.Name(),
				g.NumNodes, g.NumRouters(), g.CountChannels(), alg.Name())
		}

		if tc.open != nil {
			p := *tc.open
			p.Pattern, p.Load, p.Seed, p.Warmup = "worstcase", 0.2, 3, -1
			if got := p.Spec().Normalize(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: OpenParams spec %+v, flatsim spec %+v", o.topo, got, want)
			}
			sess, err := c.OpenSession(p)
			if err != nil {
				t.Fatalf("%s: open: %v", o.topo, err)
			}
			info := sess.Info()
			sess.Close()
			if info.Nodes != g.NumNodes || info.Routers != g.NumRouters() || info.Algorithm != alg.Name() {
				t.Errorf("%s: nocd session %+v, flatsim %d nodes, %d routers, %s",
					o.topo, info, g.NumNodes, g.NumRouters(), alg.Name())
			}
		}

		// One load point: flatsim's path (spec -> pattern -> arrivals ->
		// runPoint) against the sweep engine's job.
		p, err := fs.Destinations()
		if err != nil {
			t.Fatal(err)
		}
		src, err := fs.Arrivals(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runPoint(g, alg, flatnet.Config{Seed: o.seed, BufPerPort: o.buf}, src, o)
		if err != nil {
			t.Fatalf("%s: flatsim point: %v", o.topo, err)
		}
		res, err := job.Run(nil)
		if err != nil {
			t.Fatalf("%s: job: %v", o.topo, err)
		}
		if !reflect.DeepEqual(got, res.Point) {
			t.Errorf("%s: flatsim point %+v\nsweep.Job point %+v", o.topo, got, res.Point)
		}
	}
}
