package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"flatnet/internal/core"
	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/sweep"
	"flatnet/internal/traffic"
)

// layerMetrics is the traced run's output: every per-layer metric.
type layerMetrics map[string]metric

func (m layerMetrics) set(name, unit string, v float64) { m[name] = metric{v, unit} }

// traceLayers computes the per-layer metrics. The tracing overhead and
// the identity of traced and untraced results come from the workload's
// own ops; every layer is then probed through its public entry points,
// each on its home spec, so a traced run of any workload reports the
// full set.
func traceLayers(wins []window, rec *recorder) (layerMetrics, error) {
	m := layerMetrics{}
	rate := func(traced bool) float64 {
		var cps []float64
		for _, w := range measured(wins, traced) {
			cps = append(cps, float64(w.cycles)/w.dur.Seconds())
		}
		return median(cps)
	}
	untraced, traced := rate(false), rate(true)
	mismatched := 0
	for _, w := range wins {
		if w.traced {
			mismatched += w.failed
		}
	}
	m.set("trace.sim_cycles_per_s", "1/s", traced)
	m.set("trace.untraced_sim_cycles_per_s", "1/s", untraced)
	m.set("trace.overhead_frac", "ratio", untraced/traced-1)
	m.set("trace.mismatched_ops", "count", float64(mismatched))

	clock := timerCost()
	m.set("trace.timer_ns", "ns", clock)
	probes := []func(layerMetrics, *recorder, float64) error{
		probeSetup, probeSim, probeAlgs, probeShard, probeSweep, probeNocd,
	}
	for _, p := range probes {
		if err := p(m, rec, clock); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// fb1kNet builds the fb1k-seq spec's topology and routing algorithm.
func fb1kNet() (*core.FlatFly, sim.Algorithm, error) {
	ff, err := core.NewFlatFly(fb1kSpec.k, 2)
	if err != nil {
		return nil, nil, err
	}
	alg, err := routing.NewFlatFlyAlgorithm("CLOS AD", ff)
	return ff, alg, err
}

// probeSetup times the set-up layers on the fb1k-seq spec: topology and
// routing tables, then the network itself.
func probeSetup(m layerMetrics, rec *recorder, _ float64) error {
	var build, network []float64
	for i := 0; i < 20; i++ {
		t := time.Now()
		ff, alg, err := fb1kNet()
		if err != nil {
			return err
		}
		build = append(build, time.Since(t).Seconds()*1e3)
		if i%4 != 0 {
			continue
		}
		t = time.Now()
		n, err := sim.New(ff.Graph(), alg, sim.DefaultConfig())
		if err != nil {
			return err
		}
		network = append(network, time.Since(t).Seconds()*1e3)
		n.Close()
	}
	m.set("setup.build_ms", "ms", median(build))
	m.set("setup.network_ms", "ms", median(network))
	return nil
}

// probeSim drives sim.New + Generate + Step on the fb1k-seq spec behind
// the routing and traffic timing wrappers: 1000 warm-up cycles, then
// 1000 timed cycles, each Generate and Step a span.
func probeSim(m layerMetrics, rec *recorder, clock float64) error {
	const warm, timed = 1000, 1000
	ff, alg, err := fb1kNet()
	if err != nil {
		return err
	}
	g := ff.Graph()
	talg := newTimedAlg(alg, len(g.Routers))
	n, err := sim.New(g, talg, sim.Config{Seed: mix(defaultSeed, 0), BufPerPort: 32, PacketSize: 1})
	if err != nil {
		return err
	}
	defer n.Close()
	tsrc := newTimedSource(traffic.NewBernoulli(traffic.NewUniform(g.NumNodes)), g.NumNodes)
	if err := n.SetSource(tsrc); err != nil {
		return err
	}
	var hops, delivered int64
	n.OnDeliver(func(p *sim.Packet, _ int64) {
		hops += int64(p.Hops)
		delivered++
	})
	for i := 0; i < warm; i++ {
		if err := n.Generate(0.5); err != nil {
			return err
		}
		n.Step()
	}
	talg.per.reset()
	tsrc.arr.reset()
	tsrc.dst.reset()
	hops, delivered = 0, 0
	_, flits0 := n.FlitTotals()
	gc0, cpu0 := gcCPU()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	parent, pstart := rec.begin()
	trace := parent
	gen := make([]float64, 0, timed)
	step := make([]float64, 0, timed)
	var buffered, inFlight, backlog float64
	samples := 0
	for i := 0; i < timed; i++ {
		id, t := rec.begin()
		if err := n.Generate(0.5); err != nil {
			return err
		}
		gen = append(gen, rec.end(trace, id, parent, "sim.generate", t).Seconds()*1e6)
		id, t = rec.begin()
		n.Step()
		step = append(step, rec.end(trace, id, parent, "sim.step", t).Seconds()*1e6)
		if i%10 == 0 {
			b, f := n.Inventory()
			buffered += float64(b)
			inFlight += float64(f)
			backlog += float64(n.Backlog())
			samples++
		}
	}
	rec.end(trace, parent, 0, "probe.sim", pstart)
	runtime.ReadMemStats(&ms1)
	gc1, cpu1 := gcCPU()
	_, flits1 := n.FlitTotals()

	var genNS, stepNS float64
	for i := range step {
		genNS += gen[i] * 1e3
		stepNS += step[i] * 1e3
	}
	rcalls, rns := talg.per.total()
	acalls, ans := tsrc.arr.total()
	dcalls, dns := tsrc.dst.total()
	// Route time with the clock's own cost taken out.
	routeNS := perCall(rcalls, rns, clock) * float64(rcalls)
	trafficNS := perCall(acalls, ans, clock)*float64(acalls) + perCall(dcalls, dns, clock)*float64(dcalls)

	m.set("sim.step_us", "us", median(step))
	m.set("sim.step_p99_us", "us", percentile(step, 0.99))
	m.set("sim.generate_us", "us", median(gen))
	m.set("sim.ns_per_flit_hop", "ns", (genNS+stepNS)/float64(rcalls))
	m.set("sim.flits_per_cycle", "count", float64(flits1-flits0)/timed)
	m.set("sim.buffered_flits", "count", buffered/float64(samples))
	m.set("sim.inflight_flits", "count", inFlight/float64(samples))
	m.set("sim.backlog_pkts", "count", backlog/float64(samples))
	m.set("sim.alloc_b_per_cycle", "B", float64(ms1.TotalAlloc-ms0.TotalAlloc)/timed)
	m.set("sim.gc_cpu_frac", "ratio", (gc1-gc0)/max(cpu1-cpu0, 1e-9))
	m.set("routing.calls_per_cycle", "count", float64(rcalls)/timed)
	m.set("routing.ns_per_call", "ns", perCall(rcalls, rns, clock))
	m.set("routing.share", "ratio", routeNS/stepNS)
	m.set("routing.avg_hops", "count", float64(hops)/float64(max(delivered, 1)))
	m.set("traffic.arrivals_ns_per_call", "ns", perCall(acalls, ans, clock))
	m.set("traffic.dest_ns_per_call", "ns", perCall(dcalls, dns, clock))
	m.set("traffic.share", "ratio", trafficNS/(genNS+stepNS))
	return nil
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// probeAlgs times each Fig. 4 routing algorithm's Route on the sweep's
// 16-ary 2-flat under worst-case traffic.
func probeAlgs(m layerMetrics, rec *recorder, clock float64) error {
	const warm, timed = 300, 300
	names := map[string]string{"MIN AD": "min", "VAL": "val", "UGAL": "ugal", "UGAL-S": "ugal-s", "CLOS AD": "clos"}
	q := fig4Specs(defaultSeed)[0].Base
	for _, name := range fig4Algs {
		ff, err := core.NewFlatFly(q.K, q.N)
		if err != nil {
			return err
		}
		alg, err := routing.NewFlatFlyAlgorithm(name, ff)
		if err != nil {
			return err
		}
		g := ff.Graph()
		talg := newTimedAlg(alg, len(g.Routers))
		n, err := sim.New(g, talg, sim.Config{Seed: q.Seed, BufPerPort: 32, PacketSize: 1})
		if err != nil {
			return err
		}
		pat, err := traffic.Build("WC", traffic.BuildCtx{Nodes: g.NumNodes, Seed: q.Seed, Concentration: q.K})
		if err == nil {
			err = n.SetSource(traffic.NewBernoulli(pat))
		}
		id, start := rec.begin()
		for i := 0; err == nil && i < warm+timed; i++ {
			if i == warm {
				talg.per.reset()
			}
			if err = n.Generate(0.3); err == nil {
				n.Step()
			}
		}
		rec.end(id, id, 0, "probe.route."+names[name], start)
		n.Close()
		if err != nil {
			return err
		}
		calls, ns := talg.per.total()
		m.set("routing."+names[name]+".ns_per_call", "ns", perCall(calls, ns, clock))
	}
	return nil
}

// probeShard steps the sharded core: the 64-ary 2-flat (4096
// terminals, a working set beyond the caches) under the fb1k-seq traffic
// at two workers, and a same-state sequential twin restored from its
// snapshot; a twin that ends in another state counts as a mismatch.
func probeShard(m layerMetrics, rec *recorder, _ float64) error {
	const k, workers = 64, 2
	const warm, twin, timed = 250, 200, 1000
	ff, err := core.NewFlatFly(k, 2)
	if err != nil {
		return err
	}
	alg, err := routing.NewFlatFlyAlgorithm("CLOS AD", ff)
	if err != nil {
		return err
	}
	g := ff.Graph()
	cfg := sim.Config{Seed: mix(defaultSeed, 0), BufPerPort: 32, PacketSize: 1}
	src := func() traffic.Source { return traffic.NewBernoulli(traffic.NewUniform(g.NumNodes)) }
	par, err := sim.New(g, alg, cfg)
	if err != nil {
		return err
	}
	defer par.Close()
	if err := par.SetWorkers(workers); err != nil {
		return err
	}
	if err := par.SetSource(src()); err != nil {
		return err
	}
	cycle := func(n *sim.Network) (float64, error) {
		if err := n.Generate(0.5); err != nil {
			return 0, err
		}
		t := time.Now()
		n.Step()
		return time.Since(t).Seconds() * 1e6, nil
	}
	for i := 0; i < warm; i++ {
		if _, err := cycle(par); err != nil {
			return err
		}
	}
	var snap bytes.Buffer
	if err := par.Snapshot(&snap); err != nil {
		return err
	}
	seq, err := sim.Restore(bytes.NewReader(snap.Bytes()), g, alg, cfg)
	if err != nil {
		return err
	}
	defer seq.Close()
	if err := seq.SetSource(src()); err != nil {
		return err
	}
	run := func(n *sim.Network, cycles int, name string) ([]float64, error) {
		id, start := rec.begin()
		defer rec.end(id, id, 0, name, start)
		d := make([]float64, 0, cycles)
		for i := 0; i < cycles; i++ {
			us, err := cycle(n)
			if err != nil {
				return nil, err
			}
			d = append(d, us)
		}
		return d, nil
	}
	parD, err := run(par, twin, "probe.shard.par")
	if err != nil {
		return err
	}
	seqD, err := run(seq, twin, "probe.shard.seq")
	if err != nil {
		return err
	}
	if state(par) != state(seq) {
		m.set("trace.mismatched_ops", "count", m["trace.mismatched_ops"].Value+1)
	}
	more, err := run(par, timed-twin, "probe.shard.par")
	if err != nil {
		return err
	}
	all := append(parD, more...)
	m.set("shard.step_us", "us", median(all))
	m.set("shard.step_p99_us", "us", percentile(all, 0.99))
	m.set("shard.seq_step_us", "us", median(seqD))
	m.set("shard.speedup", "ratio", median(seqD)/median(parD))
	return nil
}

// netState is the observable state two networks in lockstep must share.
type netState struct {
	cycle, injected, delivered, flitsIn, flitsOut, backlog int64
	buffered, inFlight                                     int
}

func state(n *sim.Network) netState {
	s := netState{cycle: n.Cycle(), backlog: n.Backlog()}
	s.injected, s.delivered = n.Totals()
	s.flitsIn, s.flitsOut = n.FlitTotals()
	s.buffered, s.inFlight = n.Inventory()
	return s
}

// probeSweep runs one sweep-fig4 pass with a throwaway result cache
// attached: the cache is the only public place a job's ElapsedSeconds
// surfaces when the jobs run through RunSeries.
func probeSweep(m layerMetrics, rec *recorder, _ float64) error {
	path := filepath.Join(".bench_build", fmt.Sprintf("sweep-probe-%d.jsonl", os.Getpid()))
	os.Remove(path)
	defer os.Remove(path)
	cache, err := sweep.OpenCache(path)
	if err != nil {
		return err
	}
	r := &sweepRunner{specs: fig4Specs(defaultSeed)}
	id, start := rec.begin()
	_, err = r.pass(cache)
	wall := rec.end(id, id, 0, "probe.sweep", start).Seconds()
	if cerr := cache.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var jobMS, satMS []float64
	var cycles int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var res sweep.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return fmt.Errorf("sweep probe cache: %w", err)
		}
		jobMS = append(jobMS, res.ElapsedSeconds*1e3)
		if res.Point.Saturated || res.Job.Mode == sweep.ModeSaturation {
			satMS = append(satMS, res.ElapsedSeconds*1e3)
		}
		cycles += res.Point.Cycles
	}
	if err := sc.Err(); err != nil {
		return err
	}
	st := r.lastStats
	var busy float64
	for _, w := range st.Workers {
		busy += w.Busy.Seconds()
	}
	m.set("sweep.simulated", "count", float64(st.Simulated))
	m.set("sweep.skipped", "count", float64(st.Skipped))
	m.set("sweep.skip_ratio", "ratio", float64(st.Skipped)/float64(st.Jobs))
	m.set("sweep.busy_share", "ratio", busy/(sweepWorkers*wall))
	m.set("sweep.job_ms_p50", "ms", median(jobMS))
	m.set("sweep.sat_job_ms", "ms", median(satMS))
	m.set("sweep.cycles_per_busy_s", "1/s", float64(cycles)/busy)
	return nil
}

// probeNocd runs one round of the nocd-cosim stream on a fresh server,
// then reads the service's own view through the stats verb, and
// measures the snapshot layer in-process on the session's replica.
func probeNocd(m layerMetrics, rec *recorder, _ float64) error {
	t := time.Now()
	r, err := startNocd(defaultSeed)
	open := time.Since(t)
	if err != nil {
		return err
	}
	defer r.close()
	r.check.init(nil)
	var lat, ckpt, clone, batch []float64
	var estCycles, ests int64
	var st serviceStats
	for i := 0; i < roundLen; i++ {
		q := r.reqs[i]
		if q.kind == kClose {
			// Read the session's and the server's stats while the
			// round's session is still open.
			if st, err = r.stats(); err != nil {
				return err
			}
		}
		o := r.op(i, rec)
		if o.err != nil {
			return fmt.Errorf("nocd probe: %w", o.err)
		}
		ms := o.lat.Seconds() * 1e3
		lat = append(lat, ms)
		switch q.kind {
		case kRebase, kWCkpt:
			ckpt = append(ckpt, ms)
		case kClone, kWClone:
			clone = append(clone, ms)
		case kBatch:
			batch = append(batch, ms/batchItems)
		}
		if q.kind == kEst || q.kind == kWEst || q.kind == kBatch {
			estCycles += o.cycles
			ests += int64(len(q.items))
		}
	}
	m.set("setup.open_ms", "ms", open.Seconds()*1e3)
	m.set("nocsvc.service_p50_ms", "ms", st.p50us/1e3)
	m.set("nocsvc.service_p99_ms", "ms", st.p99us/1e3)
	m.set("nocsvc.transport_us", "us", median(lat)*1e3-st.p50us)
	m.set("nocsvc.session_cycles_per_s", "1/s", st.cyclesPerSec)
	m.set("nocsvc.batch_item_ms", "ms", median(batch))
	m.set("nocsvc.errors", "count", st.errors)
	m.set("nocsvc.est_cycles_mean", "count", float64(estCycles)/float64(ests))
	m.set("snapshot.checkpoint_ms", "ms", median(ckpt))
	m.set("snapshot.clone_ms", "ms", median(clone))

	n, g, alg, cfg, err := replica(r.seed)
	if err != nil {
		return err
	}
	defer n.Close()
	var snap bytes.Buffer
	if err := n.Snapshot(&snap); err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	restored, err := sim.Restore(bytes.NewReader(snap.Bytes()), g, alg, cfg)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	restored.Close()
	m.set("snapshot.bytes", "B", float64(snap.Len()))
	m.set("snapshot.restore_allocs", "count", float64(ms1.Mallocs-ms0.Mallocs))
	return nil
}
