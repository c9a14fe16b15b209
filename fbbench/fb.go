package main

import (
	"fmt"

	"flatnet"
	"flatnet/internal/core"
	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/sweep"
	"flatnet/internal/traffic"
)

// fbSpec is one load-point workload: CLOS AD on a k-ary 2-flat under
// uniform-random Bernoulli traffic at load 0.5 on the default §3.2
// router, each op a full flatnet.Run (warm-up, measure, drain).
type fbSpec struct {
	name            string
	k, workers      int
	warmup, measure int
}

// fbSlots is how many distinct simulation seeds a run cycles through:
// op i runs seed slot i mod fbSlots, so every later op of a slot must
// reproduce the first one exactly.
const fbSlots = 3

// fb1kSpec is the paper's §3.2 network at flatnet.Run's default
// windows, the ROADMAP's profiled case.
var fb1kSpec = fbSpec{name: "fb1k-seq", k: 32, workers: 1, warmup: 1000, measure: 1000}

type fbRunner struct {
	spec  fbSpec
	ff    *core.FlatFly
	alg   sim.Algorithm
	seeds [fbSlots]uint64
	check checker[sim.LoadPointResult]

	// Traced ops route through these wrappers instead.
	talg *timedAlg
	tsrc *timedSource
}

func fbSetup(spec fbSpec) func(seed uint64, pinned *expected) (runner, error) {
	return func(seed uint64, pinned *expected) (runner, error) {
		ff, err := core.NewFlatFly(spec.k, 2)
		if err != nil {
			return nil, err
		}
		alg, err := routing.NewFlatFlyAlgorithm("CLOS AD", ff)
		if err != nil {
			return nil, err
		}
		r := &fbRunner{spec: spec, ff: ff, alg: alg}
		for i := range r.seeds {
			r.seeds[i] = mix(seed, uint64(i))
		}
		r.check.init(pinned.points(spec.name))
		return r, nil
	}
}

func (r *fbRunner) period() int { return fbSlots }

func (r *fbRunner) run(slot int, traced bool) (sim.LoadPointResult, error) {
	opts := []flatnet.Option{
		flatnet.WithSeed(r.seeds[slot]),
		flatnet.WithWarmup(r.spec.warmup),
		flatnet.WithMeasure(r.spec.measure),
		flatnet.WithWorkers(r.spec.workers),
	}
	alg := r.alg
	if traced {
		if r.talg == nil {
			g := r.ff.Graph()
			r.talg = newTimedAlg(r.alg, len(g.Routers))
			r.tsrc = newTimedSource(traffic.NewBernoulli(traffic.NewUniform(g.NumNodes)), g.NumNodes)
		}
		alg = r.talg
		// The Bernoulli-wrapped uniform pattern is exactly flatnet.Run's
		// default workload, here behind the timing wrapper.
		opts = append(opts, flatnet.WithSource(r.tsrc))
	}
	return flatnet.Run(r.ff, alg, opts...)
}

func (r *fbRunner) op(i int, rec *recorder) opResult {
	slot := i % fbSlots
	id, start := rec.begin()
	res, err := r.run(slot, rec != nil)
	lat := rec.end(id, id, 0, "op.load_point", start)
	o := opResult{units: 1, lat: lat, cycles: res.Cycles}
	if err != nil {
		o.failed, o.err = 1, err
		return o
	}
	if !r.check.ok(slot, res) {
		o.failed = 1
	}
	return o
}

// independent re-runs op 0 along another path: a sweep.Job with the same
// spec, built and run by the sweep engine's own code.
func (r *fbRunner) independent() error {
	want, ok := r.check.seen[0]
	if !ok {
		return fmt.Errorf("no op 0 to compare")
	}
	res, err := sweep.Job{
		Net: "flatfly", K: r.spec.k, N: 2, Alg: "CLOS AD", Pattern: "UR",
		Mode: sweep.ModeLoad, Load: 0.5,
		Warmup: r.spec.warmup, Measure: r.spec.measure,
		Seed: r.seeds[0], BufPerPort: 32,
	}.Run(nil)
	if err != nil {
		return err
	}
	if res.Point != want {
		return fmt.Errorf("op 0 gave %+v, the independent path %+v", want, res.Point)
	}
	return nil
}

// layerCalls totals the timing wrappers' accumulators over the traced
// ops, for the spans file.
func (r *fbRunner) layerCalls() map[string][2]int64 {
	if r.talg == nil {
		return nil
	}
	out := map[string][2]int64{}
	for name, a := range map[string]accs{"route": r.talg.per, "arrivals": r.tsrc.arr, "dest": r.tsrc.dst} {
		calls, ns := a.total()
		out[name] = [2]int64{calls, ns}
	}
	return out
}

func (r *fbRunner) pin(e *expected) error {
	v, err := r.check.firsts(fbSlots)
	e.Points[r.spec.name] = v
	return err
}

func (r *fbRunner) close() {}
