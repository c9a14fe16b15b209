package main

import (
	"math"
	"sort"
	"time"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile (p in (0,1]).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// beyond is how many of n samples lie above the nearest-rank p
// percentile: the samples a tail figure rests on.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(data, n=4) computes them (the default
// "exclusive" method), so the steadiness report matches the
// acceptance arithmetic exactly.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// The host-steal rule: a window during which the hypervisor stole more
// than maxSteal of the host's CPU time ran slow for reasons outside the
// program, and rates and percentiles come from the other windows.
const maxSteal = 0.01

// window is one input period of consecutive ops — the same inputs every
// time, so on nocd-cosim the same request mix — with the work it did,
// how long its ops took, and the host steal share while it ran.
type window struct {
	traced        bool
	units, failed int
	cycles        int64
	dur           time.Duration
	lats          []float64 // op round trips, ms
	refs          []float64 // reference kernel samples, ms
	steal         float64
}

func (w *window) add(o opResult) {
	w.units += o.units
	w.failed += o.failed
	w.cycles += o.cycles
	w.dur += o.lat
	w.lats = append(w.lats, o.lat.Seconds()*1e3)
}

// fold adds a partial last period to the last window of its kind, or
// keeps it as a window when there is none.
func fold(wins []window, part window) []window {
	for i := len(wins) - 1; i >= 0; i-- {
		if wins[i].traced == part.traced {
			w := &wins[i]
			w.units += part.units
			w.failed += part.failed
			w.cycles += part.cycles
			w.dur += part.dur
			w.lats = append(w.lats, part.lats...)
			w.refs = append(w.refs, part.refs...)
			w.steal = max(w.steal, part.steal)
			return wins
		}
	}
	return append(wins, part)
}

// measured returns the windows of one kind the host did not steal from,
// or all windows of that kind when every one of them was stolen from.
func measured(wins []window, traced bool) []window {
	var kind, clean []window
	for _, w := range wins {
		if w.traced != traced {
			continue
		}
		kind = append(kind, w)
		if w.steal <= maxSteal {
			clean = append(clean, w)
		}
	}
	if len(clean) == 0 {
		return kind
	}
	return clean
}
