package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// captureRun runs flatsim with o and returns what it printed to stdout.
func captureRun(t *testing.T, o runOpts) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := run(o)
	w.Close()
	os.Stdout = stdout
	out := <-done
	if runErr != nil {
		t.Fatalf("%s: %v", o.topo, runErr)
	}
	return out
}

// TestLoadOutputPinned pins flatsim's single-load-point report for every
// topology family under worst-case traffic (a group pattern, so each
// family's group concentration is pinned too). The first line, the
// topology header, is left out: it describes the network rather than
// the run.
func TestLoadOutputPinned(t *testing.T) {
	cases := []struct {
		mut  func(o *runOpts)
		want string
	}{
		{func(o *runOpts) { o.topo, o.k, o.alg = "ff", 4, "ugal" }, `load 0.20: avg latency 2.61 cycles (p50 3, p95 4, p99 5, max 5), accepted 0.181
pipeline: 1472 grants, 0 conflicts, 0 credit stalls, 0 vc stalls, mean buffered 0.0 flits
hottest channels (probed flits over retained window):
  router 1 port 6: 123 flits (0.480 flits/cycle)
  router 2 port 7: 114 flits (0.445 flits/cycle)
  router 0 port 5: 113 flits (0.441 flits/cycle)
  router 3 port 4: 108 flits (0.422 flits/cycle)
  router 0 port 6: 43 flits (0.168 flits/cycle)
`},
		{func(o *runOpts) { o.topo, o.k = "butterfly", 4 }, `load 0.20: avg latency 2.99 cycles (p50 3, p95 5, p99 7, max 8), accepted 0.180
pipeline: 1307 grants, 0 conflicts, 0 credit stalls, 0 vc stalls, mean buffered 0.0 flits
hottest channels (probed flits over retained window):
  router 1 port 2: 164 flits (0.641 flits/cycle)
  router 0 port 1: 152 flits (0.594 flits/cycle)
  router 2 port 3: 150 flits (0.586 flits/cycle)
  router 3 port 0: 147 flits (0.574 flits/cycle)
  router 1 port 0: 0 flits (0.000 flits/cycle)
`},
		{func(o *runOpts) { o.topo, o.k = "clos", 4 }, `load 0.20: avg latency 3.22 cycles (p50 3, p95 4, p99 5, max 5), accepted 0.180
pipeline: 1958 grants, 0 conflicts, 0 credit stalls, 0 vc stalls, mean buffered 0.0 flits
hottest channels (probed flits over retained window):
  router 4 port 5: 86 flits (0.336 flits/cycle)
  router 1 port 4: 82 flits (0.320 flits/cycle)
  router 1 port 5: 82 flits (0.320 flits/cycle)
  router 0 port 5: 78 flits (0.305 flits/cycle)
  router 4 port 4: 78 flits (0.305 flits/cycle)
`},
		{func(o *runOpts) { o.topo, o.dims = "hypercube", 4 }, `load 0.20: avg latency 2.92 cycles (p50 3, p95 5, p99 5, max 5), accepted 0.181
pipeline: 1888 grants, 0 conflicts, 0 credit stalls, 0 vc stalls, mean buffered 0.0 flits
hottest channels (probed flits over retained window):
  router 4 port 2: 45 flits (0.176 flits/cycle)
  router 5 port 1: 45 flits (0.176 flits/cycle)
  router 3 port 1: 42 flits (0.164 flits/cycle)
  router 8 port 4: 42 flits (0.164 flits/cycle)
  router 14 port 2: 42 flits (0.164 flits/cycle)
`},
		{func(o *runOpts) { o.topo, o.q, o.alg = "sf", 5, "min" }, `load 0.20: avg latency 99.46 cycles (p50 5, p95 450, p99 1638, max 3751), accepted 0.164
pipeline: 338796 grants, 96345 conflicts, 150740 credit stalls, 0 vc stalls, mean buffered 1694.3 flits
hottest channels (probed flits over retained window):
  router 46 port 10: 3935 flits (0.961 flits/cycle)
  router 26 port 10: 3935 flits (0.961 flits/cycle)
  router 30 port 10: 3935 flits (0.961 flits/cycle)
  router 31 port 10: 3935 flits (0.961 flits/cycle)
  router 35 port 10: 3935 flits (0.961 flits/cycle)
`},
		{func(o *runOpts) { o.topo, o.gh, o.alg = "df", 2, "ugal" }, `load 0.20: avg latency 6.70 cycles (p50 7, p95 10, p99 13, max 16), accepted 0.187
pipeline: 13515 grants, 272 conflicts, 133 credit stalls, 0 vc stalls, mean buffered 2.8 flits
hottest channels (probed flits over retained window):
  router 20 port 5: 194 flits (0.758 flits/cycle)
  router 8 port 5: 191 flits (0.746 flits/cycle)
  router 0 port 5: 190 flits (0.742 flits/cycle)
  router 32 port 5: 189 flits (0.738 flits/cycle)
  router 16 port 5: 189 flits (0.738 flits/cycle)
`},
	}
	for _, tc := range cases {
		o := opts()
		o.pattern, o.load, o.seed = "worstcase", 0.2, 3
		o.warmup, o.measure = 100, 100
		tc.mut(&o)
		out := captureRun(t, o)
		_, body, _ := strings.Cut(out, "\n")
		if body != tc.want {
			t.Errorf("%s: output\n%s\nwant\n%s", o.topo, body, tc.want)
		}
	}
}
