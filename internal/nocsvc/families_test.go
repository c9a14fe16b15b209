package nocsvc_test

import (
	"errors"
	"runtime"
	"testing"

	"flatnet/internal/nocsvc"
	"flatnet/nocsvc/client"
)

// TestSessionFamiliesPinned opens one session per topology family the
// protocol offers and pins what a client observes: the SessionInfo and
// three seeded estimates under worst-case background traffic (a group
// pattern, so each family's group concentration is pinned too). Any
// change to how a session builds its network, algorithm or workload
// shows up here.
func TestSessionFamiliesPinned(t *testing.T) {
	type est struct {
		src, dst, bytes int
		cycles          int64
		hops            int
	}
	cases := []struct {
		open client.OpenParams
		info nocsvc.SessionInfo
		ests [3]est
	}{
		{
			client.OpenParams{Topology: "flatfly", K: 4, N: 2, Routing: "ugal"},
			nocsvc.SessionInfo{Nodes: 16, Routers: 4, VCs: 2, PacketSize: 1, FlitBytes: 8, Algorithm: "UGAL", WarmCycles: 300},
			[3]est{{0, 15, 64, 12, 2}, {1, 8, 512, 80, 1}, {15, 0, 8, 4, 1}},
		},
		{
			client.OpenParams{Topology: "butterfly", K: 4, N: 2},
			nocsvc.SessionInfo{Nodes: 16, Routers: 8, VCs: 1, PacketSize: 1, FlitBytes: 8, Algorithm: "destination", WarmCycles: 300},
			[3]est{{0, 15, 64, 11, 1}, {1, 8, 512, 80, 1}, {15, 0, 8, 3, 1}},
		},
		{
			client.OpenParams{Topology: "foldedclos", K: 4, N: 2},
			nocsvc.SessionInfo{Nodes: 16, Routers: 5, VCs: 1, PacketSize: 1, FlitBytes: 8, Algorithm: "adaptive sequential", WarmCycles: 300},
			[3]est{{0, 15, 64, 12, 2}, {1, 8, 512, 80, 2}, {15, 0, 8, 4, 2}},
		},
		{
			client.OpenParams{Topology: "hypercube", N: 4},
			nocsvc.SessionInfo{Nodes: 16, Routers: 16, VCs: 1, PacketSize: 1, FlitBytes: 8, Algorithm: "e-cube", WarmCycles: 300},
			[3]est{{0, 15, 64, 15, 4}, {1, 8, 512, 80, 2}, {15, 0, 8, 5, 4}},
		},
	}
	_, addr := startServer(t, nocsvc.ServerConfig{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range cases {
		p := tc.open
		p.Seed, p.Load, p.Pattern, p.Warmup = 7, 0.2, "worstcase", 300
		sess, err := c.OpenSession(p)
		if err != nil {
			t.Fatalf("%s: open: %v", p.Topology, err)
		}
		if got := sess.Info(); got != tc.info {
			t.Errorf("%s: info %+v, want %+v", p.Topology, got, tc.info)
		}
		for _, e := range tc.ests {
			r, err := sess.Estimate(e.src, e.dst, e.bytes)
			if err != nil {
				t.Fatalf("%s: estimate %d->%d: %v", p.Topology, e.src, e.dst, err)
			}
			if r.Cycles != e.cycles || r.Hops != e.hops || r.Saturated {
				t.Errorf("%s: estimate %d->%d %dB = %d cycles %d hops (saturated %t), want %d cycles %d hops",
					p.Topology, e.src, e.dst, e.bytes, r.Cycles, r.Hops, r.Saturated, e.cycles, e.hops)
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenOverCapBuildsNothing checks the server's size cap is applied
// to the requested parameters before any construction: a 1024-ary
// 3-flat (2^30 terminals) must be rejected as a bad request without
// allocating anything like its graph or routing tables.
func TestOpenOverCapBuildsNothing(t *testing.T) {
	_, addr := startServer(t, nocsvc.ServerConfig{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = c.OpenSession(client.OpenParams{Topology: "flatfly", K: 1024, N: 3})
	runtime.ReadMemStats(&after)
	var perr *nocsvc.Error
	if !errors.As(err, &perr) || perr.Code != nocsvc.CodeBadRequest {
		t.Fatalf("open over the cap: %v, want %s", err, nocsvc.CodeBadRequest)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("rejecting the open allocated %d bytes, want < 1 MB", d)
	}
}
