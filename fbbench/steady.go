package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness report
// reads: run length, workloads and the end-to-end bounds.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is what the report keeps of one child run.
type runOutput struct {
	res    result
	record map[string]json.RawMessage
}

// steadiness repeats each workload n times, each run a fresh process on
// its own seed (seed, seed+1, ...), and prints per metric the median,
// the quartiles and the relative IQR against the metric's bound. It
// fails if any run failed an op, any spread is outside its bound, or a
// percentile rests on fewer than 10 samples beyond it in some run.
func steadiness(only string, n int, seed uint64, seconds float64) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if seconds <= 0 {
		seconds = bf.RunSeconds
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	flagged := 0
	for _, w := range bf.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		var runs []runOutput
		for i := 0; i < n; i++ {
			s := seed + uint64(i)
			cmd := exec.Command(exe, "--workload", w.Name, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, s, err)
			}
			ro, err := parseRun(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, s, err)
			}
			if !ro.res.Correct || ro.res.Failed > 0 {
				fmt.Printf("%s seed %d: FLAG %d of %d ops failed\n", w.Name, s, ro.res.Failed, ro.res.Attempted)
				flagged++
			}
			runs = append(runs, ro)
		}
		fmt.Printf("\n%s: %d runs of %gs, seeds %d..%d\n", w.Name, n, seconds, seed, seed+uint64(n)-1)
		steal := make([]string, len(runs))
		slow := make([]string, len(runs))
		for i, r := range runs {
			steal[i] = string(r.record["host_steal_frac"])
			slow[i] = string(r.record["host_slowdown"])
		}
		fmt.Printf("  host steal share in run order: %s\n", strings.Join(steal, " "))
		fmt.Printf("  host slowdown in run order: %s\n", strings.Join(slow, " "))
		fmt.Printf("  %-18s %-6s %14s %14s %14s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "iqr/med", "bound")
		for _, e := range bf.EndToEnd {
			var v, raw []float64
			thin := 0
			for _, r := range runs {
				v = append(v, r.res.Metrics[e.Name].Value)
				if x, ok := r.raw(e.Name); ok {
					raw = append(raw, x)
				}
				if r.thin(e.Name) {
					thin++
				}
			}
			q1, q2, q3 := quartiles(v)
			rel := (q3 - q1) / q2
			status := "ok"
			switch {
			case e.Name == "setup_s":
				status = "(not bounded by spread)"
			case rel > e.Bound:
				status = "FLAG outside bound"
				flagged++
			case rel > e.Bound/3:
				status = "above a third of bound"
			}
			if thin > 0 {
				status += fmt.Sprintf("; FLAG percentile has <10 samples beyond it in %d runs", thin)
				flagged++
			}
			fmt.Printf("  %-18s %-6s %14.6g %14.6g %14.6g %8.4f %6.3g  %s\n", e.Name, e.Unit, q1, q2, q3, rel, e.Bound, status)
			parts := make([]string, len(v))
			for i, x := range v {
				parts[i] = strconv.FormatFloat(x, 'g', 6, 64)
			}
			fmt.Printf("  %-18s in run order: %s\n", "", strings.Join(parts, " "))
			if len(raw) == len(v) {
				r1, r2, r3 := quartiles(raw)
				fmt.Printf("  %-18s unscaled iqr/med %.4f, median %.6g\n", "", (r3-r1)/r2, r2)
			}
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d flags raised", flagged)
	}
	return nil
}

func parseRun(out []byte) (runOutput, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var ro runOutput
	if err := json.Unmarshal(lines[len(lines)-1], &ro.res); err != nil {
		return ro, fmt.Errorf("result line: %w", err)
	}
	for _, l := range lines {
		var rec struct {
			Record map[string]json.RawMessage `json:"record"`
		}
		if json.Unmarshal(l, &rec) == nil && rec.Record != nil {
			ro.record = rec.Record
		}
	}
	return ro, nil
}

// raw is the run's unscaled figure for metric, from the record line.
func (r runOutput) raw(metric string) (float64, bool) {
	var raw map[string]float64
	if b, ok := r.record["raw"]; !ok || json.Unmarshal(b, &raw) != nil {
		return 0, false
	}
	x, ok := raw[metric]
	return x, ok
}

// thin reports whether the run's figure for metric is a percentile
// resting on fewer than 10 samples beyond it.
func (r runOutput) thin(metric string) bool {
	var samples map[string]struct {
		N      int `json:"n"`
		Beyond int `json:"beyond"`
	}
	if raw, ok := r.record["samples"]; !ok || json.Unmarshal(raw, &samples) != nil {
		return false
	}
	s, ok := samples[metric]
	return ok && s.Beyond < 10
}
