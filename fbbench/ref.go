package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The host-speed reference (README.md, "Host-speed reference"). The
// shared VM this benchmark runs on drifts in speed by 15-45% over
// minutes, so every run also times this fixed kernel of the benchmark's
// own between its ops — four interleaved random walks with integer
// hashing over a 256 KiB table, which stays in L2 like the simulator's
// hot state and, like it, keeps several loads in flight — and every
// timing metric is scaled by how slow the kernel ran: a rate is
// multiplied, and a time divided, by kernel time / refNominal. The
// kernel is none of the program's code, so a change to the program
// moves the scaled figures in full.
const (
	refSteps = 600_000
	// refReps is the kernel runs behind one sample, whose median it is,
	// so one run the host interrupts does not set the sample.
	refReps    = 5
	refNominal = 4 * time.Millisecond // about the kernel's time on the host it was tuned on
	// refEvery is the least time between two samples: one before every
	// op longer than it, and about one every refEvery among shorter ops.
	// A sample is also taken at every window boundary.
	refEvery = 500 * time.Millisecond
)

// refTable is one cycle through all 2^16 slots in a seeded order
// (Sattolo's shuffle), so the walk touches the whole table. It is built
// once, before timing.
var refTable = func() []uint32 {
	const n = 1 << 16
	t := make([]uint32, n)
	for i := range t {
		t[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		t[i], t[j] = t[j], t[i]
	}
	return t
}()

// refSink keeps the kernel's result live.
var refSink atomic.Uint64

// refKernel runs the fixed kernel once and returns its time.
func refKernel() time.Duration {
	t := refTable
	start := time.Now()
	w, x, y, z := uint32(0), uint32(1<<14), uint32(2<<14), uint32(3<<14)
	h := uint64(0)
	for i := 0; i < refSteps; i++ {
		w, x, y, z = t[w], t[x], t[y], t[z]
		h = (h ^ uint64(w^x^y^z)) * 0x9E3779B97F4A7C15
	}
	d := time.Since(start)
	refSink.Add(h)
	return d
}

// refClock runs the kernel when it is due and keeps every sample, in ms.
// A sample runs threads copies of the kernel side by side — as many as
// the workload keeps busy, so a two-thread workload's host is sampled
// on both vCPUs at once — and takes their mean time.
type refClock struct {
	threads int
	next    time.Time
	all     []float64
}

// tick runs the kernel if refEvery has passed since it last ran and
// returns the sample, or 0.
func (c *refClock) tick() float64 {
	if time.Now().Before(c.next) {
		return 0
	}
	return c.run()
}

// run takes a sample now.
func (c *refClock) run() float64 {
	reps := make([]float64, refReps)
	times := make([]time.Duration, c.threads)
	for i := range reps {
		var wg sync.WaitGroup
		for j := range times {
			wg.Add(1)
			go func() {
				defer wg.Done()
				times[j] = refKernel()
			}()
		}
		wg.Wait()
		var sum time.Duration
		for _, d := range times {
			sum += d
		}
		reps[i] = sum.Seconds() * 1e3 / float64(len(times))
	}
	ms := median(reps)
	c.all = append(c.all, ms)
	c.next = time.Now().Add(refEvery)
	return ms
}

// slowdown is how much slower than refNominal the kernel ran over
// samples: their median over refNominal.
func slowdown(samples []float64) float64 {
	return median(samples) / (refNominal.Seconds() * 1e3)
}
