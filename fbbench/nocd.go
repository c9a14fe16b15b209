package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net"

	"flatnet/internal/core"
	"flatnet/internal/nocsvc"
	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
	"flatnet/nocsvc/client"
)

// The nocd-cosim session: flatfly k=16 n=2 (256 terminals), UGAL, 0.3
// uniform-random background load, the service's default 1000-cycle
// warm-up, 8-byte flits and single-flit packets.
const (
	nocdK         = 16
	nocdRouting   = "ugal"
	nocdLoad      = 0.3
	nocdWarmup    = 1000
	nocdFlitBytes = 8
	// roundLen is the requests in one round of the stream. Every round
	// opens a clone of the same warmed checkpoint, so its answers repeat
	// exactly and the default seed can pin each of them.
	roundLen = 1000
	// batchEvery is the estimate-or-batch items per batch_estimate, and
	// batchItems the transfers in one.
	batchEvery = 50
	batchItems = 8
	// whatIfs is the what-if branches per round (about every 500th op).
	whatIfs = 2
)

func nocdParams(seed uint64) client.OpenParams {
	return client.OpenParams{
		Topology: "flatfly", K: nocdK, N: 2, Routing: nocdRouting,
		Seed: seed, Load: nocdLoad, Warmup: nocdWarmup, FlitBytes: nocdFlitBytes,
	}
}

// Request kinds of a round.
const (
	kClone  = iota // clone the round's base checkpoint: the round's session
	kRebase        // checkpoint the fresh clone: the next round's base
	kEst           // estimate on the round's session
	kBatch         // batch_estimate on the round's session
	kWCkpt         // what-if: checkpoint the round's session
	kWClone        // what-if: clone that checkpoint
	kWEst          // what-if: estimate on the clone
	kWClose        // what-if: close the clone
	kClose         // close the round's session
)

var kindNames = [...]string{"clone", "checkpoint", "estimate", "batch_estimate",
	"checkpoint", "clone", "estimate", "close", "close"}

type request struct {
	kind  int
	items []client.EstimateParams
}

// nocdStream builds one round's requests from the seed. Sizes come from
// stratified decks of 20 estimates (16 × 64 B, 3 × 512 B, 1 × 4 KB,
// shuffled), so every round has the 80/15/5 mix exactly; one item in
// each run of batchEvery is an 8-item batch_estimate; a what-if branch
// (checkpoint, clone, estimate, close) sits at a seeded place in each
// half of the round. The first item is always a plain estimate.
func nocdStream(seed uint64, nodes int) []request {
	r := rand.New(rand.NewPCG(seed, 0x6e6f6364))
	var deck []int
	size := func() int {
		if len(deck) == 0 {
			deck = make([]int, 0, 20)
			for i := 0; i < 16; i++ {
				deck = append(deck, 64)
			}
			deck = append(deck, 512, 512, 512, 4096)
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		s := deck[len(deck)-1]
		deck = deck[:len(deck)-1]
		return s
	}
	transfer := func() client.EstimateParams {
		src := r.IntN(nodes)
		dst := r.IntN(nodes - 1)
		if dst >= src {
			dst++
		}
		return client.EstimateParams{Src: src, Dst: dst, Bytes: size()}
	}
	reqs := []request{{kind: kClone}, {kind: kRebase}}
	items := roundLen - len(reqs) - 1 - 4*whatIfs
	half := items / whatIfs
	var whatIfAt [whatIfs]int
	for h := range whatIfAt {
		whatIfAt[h] = h*half + 1 + r.IntN(half-1)
	}
	batchAt := -1
	for j := 0; j < items; j++ {
		if j%batchEvery == 0 {
			batchAt = j + 1 + r.IntN(batchEvery-1)
		}
		for _, w := range whatIfAt {
			if j == w {
				reqs = append(reqs, request{kind: kWCkpt}, request{kind: kWClone},
					request{kind: kWEst, items: []client.EstimateParams{transfer()}}, request{kind: kWClose})
			}
		}
		if j == batchAt {
			b := make([]client.EstimateParams, batchItems)
			for i := range b {
				b[i] = transfer()
			}
			reqs = append(reqs, request{kind: kBatch, items: b})
		} else {
			reqs = append(reqs, request{kind: kEst, items: []client.EstimateParams{transfer()}})
		}
	}
	return append(reqs, request{kind: kClose})
}

type nocdRunner struct {
	srv    *nocsvc.Server
	served chan struct{} // closed when Serve has returned
	c      *client.Client
	seed   uint64 // the session's simulation seed
	reqs   []request

	base   string          // checkpoint the next round clones
	cur    *client.Session // the round's session
	ckpt   string          // the what-if checkpoint
	whatIf *client.Session

	check checker[uint64]
}

// nocdSetup starts an in-process server on a loopback listener, dials
// it, opens the warmed session and checkpoints it as the first round's
// base. The opened session itself then closes: every round runs on a
// clone.
func nocdSetup(seed uint64, pinned *expected) (runner, error) {
	r, err := startNocd(seed)
	if err != nil {
		return nil, err
	}
	r.check.init(pinned.digests("nocd-cosim"))
	return r, nil
}

func startNocd(seed uint64) (*nocdRunner, error) {
	srv := nocsvc.NewServer(nocsvc.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns when Close shuts the listener
	}()
	r := &nocdRunner{srv: srv, served: served, seed: mix(seed, 0x6e6f6364)}
	fail := func(err error) (*nocdRunner, error) {
		r.close()
		return nil, err
	}
	r.c, err = client.Dial(ln.Addr().String())
	if err != nil {
		return fail(err)
	}
	s, err := r.c.OpenSession(nocdParams(r.seed))
	if err != nil {
		return fail(err)
	}
	r.base, err = s.Checkpoint()
	if err != nil {
		return fail(err)
	}
	if err := s.Close(); err != nil {
		return fail(err)
	}
	r.reqs = nocdStream(mix(seed, 0x5eed), s.Info().Nodes)
	return r, nil
}

func (r *nocdRunner) period() int { return roundLen }

// digest folds the simulated part of an answer into one number: the
// cycles, hops, packet count and saturation flag of every estimate.
func digest(kind int, warm int64, est []client.EstimateResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(int64(kind))
	put(warm)
	for _, e := range est {
		sat := int64(0)
		if e.Saturated {
			sat = 1
		}
		put(e.Cycles)
		put(int64(e.Hops))
		put(int64(e.Packets))
		put(sat)
	}
	return h.Sum64()
}

// do sends request q and returns the simulated part of its answer.
func (r *nocdRunner) do(q request) (warm int64, est []client.EstimateResult, err error) {
	if (r.cur == nil && q.kind != kClone) || (r.whatIf == nil && (q.kind == kWEst || q.kind == kWClose)) {
		return 0, nil, fmt.Errorf("%s: its session failed to open", kindNames[q.kind])
	}
	switch q.kind {
	case kClone, kWClone:
		from := r.base
		if q.kind == kWClone {
			from = r.ckpt
		}
		s, err := r.c.CloneSession(from)
		if err != nil {
			if q.kind == kClone {
				r.cur = nil
			} else {
				r.whatIf = nil
			}
			return 0, nil, err
		}
		if q.kind == kClone {
			r.cur = s
		} else {
			r.whatIf = s
		}
		return s.Info().WarmCycles, nil, nil
	case kRebase:
		r.base, err = r.cur.Checkpoint()
		return 0, nil, err
	case kWCkpt:
		r.ckpt, err = r.cur.Checkpoint()
		return 0, nil, err
	case kEst, kWEst:
		s := r.cur
		if q.kind == kWEst {
			s = r.whatIf
		}
		it := q.items[0]
		e, err := s.Estimate(it.Src, it.Dst, it.Bytes)
		if err != nil {
			return 0, nil, err
		}
		return 0, []client.EstimateResult{e}, nil
	case kBatch:
		est, err = r.cur.BatchEstimate(q.items)
		return 0, est, err
	case kWClose:
		return 0, nil, r.whatIf.Close()
	case kClose:
		return 0, nil, r.cur.Close()
	}
	return 0, nil, fmt.Errorf("unknown request kind %d", q.kind)
}

func (r *nocdRunner) op(i int, rec *recorder) opResult {
	slot := i % roundLen
	q := r.reqs[slot]
	id, start := rec.begin()
	warm, est, err := r.do(q)
	lat := rec.end(int64(i/roundLen)+1, id, 0, "nocd."+kindNames[q.kind], start)
	o := opResult{units: 1, lat: lat}
	if err != nil {
		o.failed, o.err = 1, err
		return o
	}
	for _, e := range est {
		o.cycles += e.Cycles
		if e.Saturated {
			o.failed = 1
		}
	}
	if !r.check.ok(slot, digest(q.kind, warm, est)) {
		o.failed = 1
	}
	return o
}

// replica builds the session's network in-process, straight on
// internal/sim, and warms it the way the service does: the independent
// path nocd answers are checked against.
func replica(seed uint64) (*sim.Network, *topo.Graph, sim.Algorithm, sim.Config, error) {
	cfg := sim.Config{Seed: seed, BufPerPort: 32, PacketSize: 1}
	ff, err := core.NewFlatFly(nocdK, 2)
	if err != nil {
		return nil, nil, nil, cfg, err
	}
	alg, err := routing.NewFlatFlyAlgorithm(nocdRouting, ff)
	if err != nil {
		return nil, nil, nil, cfg, err
	}
	g := ff.Graph()
	n, err := sim.New(g, alg, cfg)
	if err != nil {
		return nil, nil, nil, cfg, err
	}
	pat, err := traffic.Build("uniform", traffic.BuildCtx{Nodes: g.NumNodes, Seed: seed, Concentration: nocdK})
	if err == nil {
		err = n.SetSource(traffic.NewBernoulli(pat))
	}
	for i := 0; err == nil && i < nocdWarmup; i++ {
		err = advance(n)
	}
	if err != nil {
		n.Close()
		return nil, nil, nil, cfg, err
	}
	return n, g, alg, cfg, nil
}

func advance(n *sim.Network) error {
	if err := n.Generate(nocdLoad); err != nil {
		return err
	}
	n.Step()
	return nil
}

// independent recomputes the round's first estimate on the replica and
// compares it with what the service answered.
func (r *nocdRunner) independent() error {
	const first = 2 // after the clone and the rebase checkpoint
	want, ok := r.check.seen[first]
	if !ok {
		return fmt.Errorf("no first estimate to compare")
	}
	n, _, _, _, err := replica(r.seed)
	if err != nil {
		return err
	}
	defer n.Close()
	it := r.reqs[first].items[0]
	packets := (it.Bytes + nocdFlitBytes - 1) / nocdFlitBytes
	tr, err := n.StartTransfer(topo.NodeID(it.Src), topo.NodeID(it.Dst), packets)
	if err != nil {
		return err
	}
	for !tr.Done() {
		if err := advance(n); err != nil {
			return err
		}
	}
	got := digest(kEst, 0, []client.EstimateResult{{Cycles: tr.Latency(), Hops: tr.Hops(), Packets: packets}})
	if got != want {
		return fmt.Errorf("first estimate differs from the in-process replica (%d cycles, %d hops)", tr.Latency(), tr.Hops())
	}
	return nil
}

// serviceStats is the service's own view of the stream so far, read
// through the stats verb on the round's session.
type serviceStats struct{ p50us, p99us, errors, cyclesPerSec float64 }

func (r *nocdRunner) stats() (serviceStats, error) {
	s, err := r.cur.Stats()
	if err != nil {
		return serviceStats{}, err
	}
	if s.Session == nil {
		return serviceStats{}, fmt.Errorf("stats: no session detail")
	}
	return serviceStats{
		p50us:        s.Server.Service.P50US,
		p99us:        s.Server.Service.P99US,
		errors:       float64(s.Server.Errors),
		cyclesPerSec: s.Session.CyclesPerSec,
	}, nil
}

func (r *nocdRunner) pin(e *expected) error {
	v, err := r.check.firsts(roundLen)
	e.Digests["nocd-cosim"] = v
	return err
}

func (r *nocdRunner) close() {
	if r.c != nil {
		r.c.Close()
	}
	r.srv.Close()
	<-r.served
}
