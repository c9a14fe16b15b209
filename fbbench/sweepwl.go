package main

import (
	"context"
	"fmt"

	"flatnet"
	"flatnet/internal/core"
	"flatnet/internal/experiments"
	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/sweep"
)

// sweepWorkers is the pool size of every sweep pass.
const sweepWorkers = 2

// fig4Algs are the paper's five flattened-butterfly algorithms, in
// Fig. 4 order.
var fig4Algs = []string{"MIN AD", "VAL", "UGAL", "UGAL-S", "CLOS AD"}

// fig4Specs is the Fig. 4a+4b grid at experiments.Quick() scale: each
// algorithm under UR and WC over the five quick loads plus a saturation
// point, 60 points on the 16-ary 2-flat. The job seed is the workload
// seed, so the default seed reproduces paperfigs -quick.
func fig4Specs(seed uint64) []sweep.SeriesSpec {
	s := experiments.Quick()
	var specs []sweep.SeriesSpec
	for _, pat := range []string{"UR", "WC"} {
		for _, alg := range fig4Algs {
			specs = append(specs, sweep.SeriesSpec{
				Base: sweep.Job{
					Net: "flatfly", K: s.K, N: s.N, Alg: alg, Pattern: pat,
					Warmup: s.Warmup, Measure: s.Measure, MaxCycles: s.MaxCycles,
					Seed: seed, BufPerPort: 32,
				},
				Loads:      s.Loads,
				Saturation: true,
			})
		}
	}
	return specs
}

// flatten lists a pass's figure points in series order: each curve's
// load points, then its saturation throughput as a point of its own.
func flatten(res []sweep.SeriesResult) []sim.LoadPointResult {
	var pts []sim.LoadPointResult
	for _, sr := range res {
		pts = append(pts, sr.Points...)
		pts = append(pts, sim.LoadPointResult{AcceptedRate: sr.SaturationThroughput})
	}
	return pts
}

type sweepRunner struct {
	seed  uint64
	specs []sweep.SeriesSpec
	check checker[sim.LoadPointResult]
	// lastStats is the engine accounting of the latest pass.
	lastStats sweep.Stats
}

func sweepSetup(seed uint64, pinned *expected) (runner, error) {
	r := &sweepRunner{seed: seed, specs: fig4Specs(seed)}
	r.check.init(pinned.points("sweep-fig4"))
	return r, nil
}

func (r *sweepRunner) period() int { return 1 }

// pass runs one RunSeries call on a fresh two-worker engine with no
// cache and no warm store. A non-nil cache serves the traced probe,
// which reads per-job times back from it.
func (r *sweepRunner) pass(cache *sweep.Cache) ([]sim.LoadPointResult, error) {
	e := &sweep.Engine{Workers: sweepWorkers, Cache: cache}
	res, err := e.RunSeries(context.Background(), r.specs)
	r.lastStats = e.Stats()
	if err != nil {
		return nil, err
	}
	return flatten(res), nil
}

func (r *sweepRunner) op(i int, rec *recorder) opResult {
	id, start := rec.begin()
	pts, err := r.pass(nil)
	lat := rec.end(id, id, 0, "op.sweep_pass", start)
	o := opResult{units: len(r.specs) * (len(r.specs[0].Loads) + 1), lat: lat}
	if err != nil {
		o.failed, o.err = o.units, err
		return o
	}
	for j, p := range pts {
		o.cycles += p.Cycles
		if !r.check.ok(j, p) {
			o.failed++
		}
	}
	return o
}

// independent re-runs the pass's first point with flatnet.Run on the
// same spec, outside the sweep engine.
func (r *sweepRunner) independent() error {
	want, ok := r.check.seen[0]
	if !ok {
		return fmt.Errorf("no point 0 to compare")
	}
	j := r.specs[0].Base
	ff, err := core.NewFlatFly(j.K, j.N)
	if err != nil {
		return err
	}
	alg, err := routing.NewFlatFlyAlgorithm(j.Alg, ff)
	if err != nil {
		return err
	}
	got, err := flatnet.Run(ff, alg,
		flatnet.WithLoad(r.specs[0].Loads[0]),
		flatnet.WithWarmup(j.Warmup), flatnet.WithMeasure(j.Measure),
		flatnet.WithMaxCycles(j.MaxCycles), flatnet.WithSeed(j.Seed))
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("sweep point 0 gave %+v, flatnet.Run %+v", want, got)
	}
	return nil
}

func (r *sweepRunner) pin(e *expected) error {
	v, err := r.check.firsts(len(r.specs) * (len(r.specs[0].Loads) + 1))
	e.Points["sweep-fig4"] = v
	return err
}

func (r *sweepRunner) close() {}
