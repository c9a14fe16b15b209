package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"flatnet/internal/rng"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// acc is one accumulator slot: a call count and the host nanoseconds the
// calls took. It is padded to a cache line so that slots owned by
// different shards never share one.
type acc struct {
	calls int64
	ns    int64
	_     [6]int64
}

// accs is a set of per-router or per-node accumulators. A slot is only
// ever touched by the goroutine that owns its router or node, so the
// shards of a parallel run never share a counter.
type accs []acc

func (a accs) total() (calls, ns int64) {
	for i := range a {
		calls += a[i].calls
		ns += a[i].ns
	}
	return calls, ns
}

func (a accs) reset() {
	for i := range a {
		a[i] = acc{}
	}
}

// timedAlg wraps a routing algorithm and times every Route call into the
// accumulator of the router making it. It changes no routing decision
// and draws no random number, so a run through it is bit-identical.
type timedAlg struct {
	sim.Algorithm
	per accs
}

func newTimedAlg(alg sim.Algorithm, routers int) *timedAlg {
	return &timedAlg{Algorithm: alg, per: make(accs, routers)}
}

func (a *timedAlg) Route(v *sim.RouterView, p *sim.Packet) sim.OutRef {
	t := time.Now()
	out := a.Algorithm.Route(v, p)
	s := &a.per[v.Router()]
	s.ns += int64(time.Since(t))
	s.calls++
	return out
}

// timedSource wraps a workload source and times Arrivals and Dest into
// per-node accumulators. Arrivals runs on the caller's goroutine and
// Dest on the node's home shard, so each node's slot has one writer.
type timedSource struct {
	traffic.Source
	arr, dst accs
}

func newTimedSource(src traffic.Source, nodes int) *timedSource {
	return &timedSource{Source: src, arr: make(accs, nodes), dst: make(accs, nodes)}
}

func (s *timedSource) Arrivals(src topo.NodeID, load float64, pktFlits int, r *rng.Source) int {
	t := time.Now()
	n := s.Source.Arrivals(src, load, pktFlits, r)
	a := &s.arr[src]
	a.ns += int64(time.Since(t))
	a.calls++
	return n
}

func (s *timedSource) Dest(src topo.NodeID, r *rng.Source) topo.NodeID {
	t := time.Now()
	d := s.Source.Dest(src, r)
	a := &s.dst[src]
	a.ns += int64(time.Since(t))
	a.calls++
	return d
}

// timerCost is the median host cost of one empty timed region
// (time.Now plus time.Since). Per-call figures subtract it, so that a
// layer call cheaper than the clock is not reported as the clock's cost.
func timerCost() float64 {
	const n = 4096
	d := make([]float64, n)
	var sink time.Duration
	for i := range d {
		t := time.Now()
		sink += time.Since(t)
		d[i] = float64(sink)
		sink = 0
	}
	return median(d)
}

// perCall returns the mean nanoseconds per call with the timer cost
// taken out, never below zero.
func perCall(calls, ns int64, clock float64) float64 {
	if calls == 0 {
		return 0
	}
	v := float64(ns)/float64(calls) - clock
	if v < 0 {
		return 0
	}
	return v
}

// span is one timed interval of the benchmark: an op, a probe or a layer
// call. Spans of one op or probe share Trace; Parent names the span that
// caused this one (0 for a root).
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced ops run.
type recorder struct {
	origin time.Time
	next   int64
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id and start time; end closes it.
func (r *recorder) begin() (int64, time.Time) {
	if r == nil {
		return 0, time.Now()
	}
	r.next++
	return r.next, time.Now()
}

func (r *recorder) end(trace, id, parent int64, name string, start time.Time) time.Duration {
	now := time.Now()
	if r != nil {
		r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
			Start: int64(start.Sub(r.origin)), End: int64(now.Sub(r.origin))})
	}
	return now.Sub(start)
}

// write stores the spans as JSON lines after one header line.
func (r *recorder) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].Start < r.spans[j].Start })
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
