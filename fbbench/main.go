// Command fbbench is the repository benchmark. It runs one workload for
// a fixed time and prints every end-to-end metric (or, traced, every
// per-layer metric) as one JSON object on the last line of its output.
// It drives the simulator only through public entry points —
// flatnet.Run, sim.New/Generate/Step, sweep.Engine.RunSeries and the
// nocsvc server with its client — and times those calls from outside.
//
//	go run . --workload fb1k-seq --seed 1 --seconds 15 --trace 0
//	go run . --steady 10                  # steadiness report, all workloads
//	go run . --pin expected.json          # re-pin the default seed's results
//
// See README.md for the workloads, metrics and predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flatnet/internal/sim"
)

// opResult is one timed op: how many units of work it counts (load
// points, figure points or protocol requests), how many of them failed,
// the simulated cycles it produced and its round-trip time.
type opResult struct {
	units, failed int
	cycles        int64
	lat           time.Duration
	err           error
}

// runner is one set-up instance of a workload.
type runner interface {
	// period is the op count after which a run repeats its inputs.
	period() int
	// op runs timed op i; a non-nil recorder traces it.
	op(i int, rec *recorder) opResult
	// independent recomputes the run's first op along another path.
	independent() error
	// pin stores the first period's results as the pinned values.
	pin(e *expected) error
	close()
}

type workload struct {
	name  string
	setup func(seed uint64, pinned *expected) (runner, error)
	// minOps is the op count a run completes even past its time budget:
	// enough for the medians (and, on nocd-cosim, the p99) it reports.
	minOps int
	// threads is how many threads its ops keep busy, and so how many
	// copies of the reference kernel run side by side in one sample.
	threads int
}

var workloads = []workload{
	{"fb1k-seq", fbSetup(fb1kSpec), 3, 1},
	{"sweep-fig4", sweepSetup, 2, 2},
	{"nocd-cosim", nocdSetup, 1000, 1},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed; the default seed's results are pinned")
		seconds = flag.Float64("seconds", 15, "seconds of timed ops per run")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
		steady  = flag.Int("steady", 0, "repeat each workload (or the one named) this many times, seeds --seed and up, and report steadiness")
		pinTo   = flag.String("pin", "", "run every workload's first period on the default seed and write the results here")
	)
	flag.Parse()
	var err error
	switch {
	case *pinTo != "":
		err = pin(*pinTo)
	case *steady > 0:
		secs := 0.0 // BENCHMARK.json's run_seconds unless --seconds is given
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seconds" {
				secs = *seconds
			}
		})
		err = steadiness(*name, *steady, *seed, secs)
	default:
		err = measure(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbbench:", err)
		os.Exit(1)
	}
}

// measure is one benchmark run.
func measure(name string, seed uint64, seconds float64, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	var pinned *expected
	if seed == defaultSeed {
		if pinned, err = loadExpected(); err != nil {
			return err
		}
	}

	// Set up several times and keep the last instance; setup_s is the
	// median, so one slow set-up does not move it. The reference kernel
	// runs among the set-ups and once after them.
	var setups, setupRefs []float64
	var r runner
	clk := refClock{threads: w.threads}
	for total := 0.0; len(setups) < 5 || (total < 0.5 && len(setups) < 100000); {
		if r != nil {
			r.close()
		}
		if ms := clk.tick(); ms > 0 {
			setupRefs = append(setupRefs, ms)
		}
		t := time.Now()
		r, err = w.setup(seed, pinned)
		d := time.Since(t).Seconds()
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, d)
		total += d
	}
	defer r.close()
	first := clk.run()
	setupRefs = append(setupRefs, first)

	// The timed phase, in windows of one input period each. A traced run
	// alternates whole periods untraced and traced, so the two see the
	// same inputs and must give the same simulated results (the checker
	// holds them to it), and their rates give the tracing overhead.
	var rec *recorder
	minOps := w.minOps
	if traced {
		rec = newRecorder()
		minOps = max(minOps, 2*r.period())
	}
	var all []opResult
	var wins []window
	cur := window{refs: []float64{first}}
	var errs []string
	begin := readHost()
	mark := begin
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		cur.traced = traced && (i/r.period())%2 == 1
		if ms := clk.tick(); ms > 0 {
			cur.refs = append(cur.refs, ms)
		}
		var o opResult
		if cur.traced {
			o = r.op(i, rec)
		} else {
			o = r.op(i, nil)
		}
		all = append(all, o)
		cur.add(o)
		if o.err != nil && len(errs) < 5 {
			errs = append(errs, o.err.Error())
		}
		if (i+1)%r.period() == 0 {
			h := readHost()
			cur.steal = h.stealSince(mark)
			mark = h
			// The sample at the boundary belongs to both windows.
			ms := clk.run()
			cur.refs = append(cur.refs, ms)
			wins = append(wins, cur)
			cur = window{refs: []float64{ms}}
		}
	}
	end := readHost()
	if cur.units > 0 {
		cur.refs = append(cur.refs, clk.run())
		cur.steal = end.stealSince(mark)
		wins = fold(wins, cur)
	}

	res := result{Metrics: map[string]metric{}}
	for _, o := range all {
		res.Attempted += o.units
		res.Failed += o.failed
	}
	// Checked outside the timed phase: the first op against another
	// path. The default seed's ops are all checked against pinned values.
	indep := "pinned"
	if seed != defaultSeed {
		indep = "ok"
		if err := r.independent(); err != nil {
			indep = err.Error()
			if all[0].failed == 0 {
				res.Failed++
			}
		}
	}
	res.Correct = res.Failed == 0
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "fbbench: op failed:", e)
	}

	prov := record(name, seed, traced)
	prov["ops"] = len(all)
	prov["independent"] = indep
	prov["setup_reps"] = len(setups)
	prov["host_steal_frac"] = end.stealSince(begin)
	if traced {
		layers, err := traceLayers(wins, rec)
		if err != nil {
			return fmt.Errorf("%s: traced run: %w", name, err)
		}
		res.Metrics = layers
		if layers["trace.mismatched_ops"].Value > 0 {
			res.Correct = false
		}
		header := map[string]any{"record": prov}
		// Load-point ops route through the timing wrappers: their
		// per-router and per-node accumulators, totalled as [calls, ns].
		if fr, ok := r.(*fbRunner); ok {
			header["layer_calls"] = fr.layerCalls()
		}
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := rec.write(path, header); err != nil {
			return err
		}
		prov["spans"] = path
	} else {
		// Each window is scaled by the reference kernel's slowdown over
		// its samples, the boundary ones included, so every window has
		// one; the raw figures go on the record line.
		used := measured(wins, false)
		var cps, ups, lats, rawCps, rawUps, rawLats []float64
		for _, w := range used {
			f := slowdown(w.refs)
			c := float64(w.cycles) / w.dur.Seconds()
			u := float64(w.units) / w.dur.Seconds()
			cps, rawCps = append(cps, c*f), append(rawCps, c)
			ups, rawUps = append(ups, u*f), append(rawUps, u)
			for _, l := range w.lats {
				lats, rawLats = append(lats, l/f), append(rawLats, l)
			}
		}
		res.Metrics["setup_s"] = metric{median(setups) / slowdown(setupRefs), "s"}
		res.Metrics["sim_cycles_per_s"] = metric{median(cps), "1/s"}
		res.Metrics["ops_per_s"] = metric{median(ups), "1/s"}
		res.Metrics["op_p50_ms"] = metric{percentile(lats, 0.50), "ms"}
		res.Metrics["op_p99_ms"] = metric{percentile(lats, 0.99), "ms"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		prov["host_slowdown"] = slowdown(clk.all)
		prov["ref_samples"] = len(clk.all)
		prov["raw"] = map[string]float64{
			"setup_s":          median(setups),
			"sim_cycles_per_s": median(rawCps),
			"ops_per_s":        median(rawUps),
			"op_p50_ms":        percentile(rawLats, 0.50),
			"op_p99_ms":        percentile(rawLats, 0.99),
		}
		prov["windows"] = len(wins)
		prov["windows_measured"] = len(used)
		prov["samples"] = map[string]any{
			"op_p50_ms": map[string]int{"n": len(lats), "beyond": beyond(len(lats), 0.50)},
			"op_p99_ms": map[string]int{"n": len(lats), "beyond": beyond(len(lats), 0.99)},
		}
	}
	b, err := json.Marshal(map[string]any{"record": prov})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	b, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// record is the provenance every result carries: host, toolchain, build
// revision and the workload seed.
func record(name string, seed uint64, traced bool) map[string]any {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"workload":     name,
		"seed":         seed,
		"traced":       traced,
		"cpu_model":    cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"vcs_revision": rev,
		"vcs_modified": modified,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostMark is a reading of the all-CPU steal and total jiffies in
// /proc/stat. Steal is time the hypervisor ran other guests while this
// machine's vCPUs wanted to run.
type hostMark struct{ steal, total uint64 }

// readHost reads /proc/stat (zeros where it is unreadable, which makes
// every steal share 0).
func readHost() hostMark {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostMark{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostMark{}
	}
	var m hostMark
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return hostMark{}
		}
		m.total += n
		if i == 7 {
			m.steal = n
		}
	}
	return m
}

// stealSince is the share of the host CPU time since m that was stolen.
func (h hostMark) stealSince(m hostMark) float64 {
	if h.total <= m.total {
		return 0
	}
	return float64(h.steal-m.steal) / float64(h.total-m.total)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// pin runs every workload's first period on the default seed, unchecked,
// and writes the results as the new pinned values.
func pin(path string) error {
	e := &expected{Seed: defaultSeed, Points: map[string][]sim.LoadPointResult{}, Digests: map[string][]uint64{}}
	for _, w := range workloads {
		r, err := w.setup(defaultSeed, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for i := 0; i < r.period(); i++ {
			if o := r.op(i, nil); o.err != nil || o.failed > 0 {
				r.close()
				return fmt.Errorf("%s: op %d failed: %v", w.name, i, o.err)
			}
		}
		err = r.pin(e)
		r.close()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Fprintf(os.Stderr, "pinned %s\n", w.name)
	}
	return e.save(path)
}
