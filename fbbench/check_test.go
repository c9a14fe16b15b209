package main

import (
	"testing"

	"flatnet/internal/sim"
)

// TestPerturbedExpectationFailsOps runs real ops against the pinned
// values and against copies with one value nudged: the pinned values
// pass, and each nudge makes exactly the op it belongs to fail.
func TestPerturbedExpectationFailsOps(t *testing.T) {
	pinned, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	perturbed := func() *expected {
		e := &expected{Seed: pinned.Seed, Points: map[string][]sim.LoadPointResult{}, Digests: map[string][]uint64{}}
		for k, v := range pinned.Points {
			e.Points[k] = append([]sim.LoadPointResult(nil), v...)
		}
		for k, v := range pinned.Digests {
			e.Digests[k] = append([]uint64(nil), v...)
		}
		return e
	}

	t.Run("load point", func(t *testing.T) {
		bad := perturbed()
		bad.Points["fb1k-seq"][0].AvgLatency += 1e-9
		for _, c := range []struct {
			exp  *expected
			fail int
		}{{pinned, 0}, {bad, 1}} {
			r, err := fbSetup(fb1kSpec)(defaultSeed, c.exp)
			if err != nil {
				t.Fatal(err)
			}
			o := r.op(0, nil)
			r.close()
			if o.err != nil {
				t.Fatal(o.err)
			}
			if o.failed != c.fail {
				t.Errorf("op 0 failed %d, want %d", o.failed, c.fail)
			}
		}
	})

	t.Run("nocd digest", func(t *testing.T) {
		bad := perturbed()
		bad.Digests["nocd-cosim"][2]++ // the round's first estimate
		for _, c := range []struct {
			exp  *expected
			fail []int
		}{{pinned, []int{0, 0, 0, 0}}, {bad, []int{0, 0, 1, 0}}} {
			r, err := nocdSetup(defaultSeed, c.exp)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range c.fail {
				o := r.op(i, nil)
				if o.err != nil {
					t.Fatal(o.err)
				}
				if o.failed != want {
					t.Errorf("request %d failed %d, want %d", i, o.failed, want)
				}
			}
			r.close()
		}
	})
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) gives for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestTracedOpsMatchUntraced runs load points on two shard workers with
// and without the timing wrappers. Under -race it also shows that the
// per-router and per-node accumulators are never shared between shards.
func TestTracedOpsMatchUntraced(t *testing.T) {
	spec := fbSpec{name: "small", k: 8, workers: 2, warmup: 100, measure: 100}
	r, err := fbSetup(spec)(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	rec := newRecorder()
	for i := 0; i < 2*fbSlots; i++ {
		var o opResult
		if i < fbSlots {
			o = r.op(i, nil)
		} else {
			o = r.op(i, rec)
		}
		if o.err != nil || o.failed != 0 {
			t.Fatalf("op %d: failed %d, err %v", i, o.failed, o.err)
		}
	}
	fr := r.(*fbRunner)
	if calls, _ := fr.talg.per.total(); calls == 0 {
		t.Error("traced ops made no timed Route calls")
	}
	if calls, _ := fr.tsrc.dst.total(); calls == 0 {
		t.Error("traced ops made no timed Dest calls")
	}
}

// TestRefTableIsOneCycle checks that the reference kernel's table is a
// single cycle through every slot, so no walk is caught in a short loop
// that would fit a smaller cache than the one it is meant to exercise.
func TestRefTableIsOneCycle(t *testing.T) {
	p, n := uint32(0), 0
	for {
		p = refTable[p]
		n++
		if p == 0 || n > len(refTable) {
			break
		}
	}
	if n != len(refTable) {
		t.Errorf("walk from slot 0 returns after %d steps, want %d", n, len(refTable))
	}
}

// TestRefClockThreads runs a two-wide sample; under -race it checks
// that the side-by-side copies share no unguarded state.
func TestRefClockThreads(t *testing.T) {
	c := refClock{threads: 2}
	if ms := c.run(); ms <= 0 || len(c.all) != 1 {
		t.Errorf("sample %v ms, %d kept", ms, len(c.all))
	}
	if ms := c.tick(); ms != 0 {
		t.Errorf("tick right after a sample ran the kernel (%v ms)", ms)
	}
}
