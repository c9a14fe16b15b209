package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"

	"flatnet/internal/sim"
)

// defaultSeed is the seed whose results are pinned in expected.json.
const defaultSeed = 1

//go:embed expected.json
var expectedFS embed.FS

// expected holds the simulated results the default seed must reproduce:
// every load point's full LoadPointResult, every sweep point, and a
// digest of each nocd request's answer.
type expected struct {
	Seed    uint64                           `json:"seed"`
	Points  map[string][]sim.LoadPointResult `json:"points"`
	Digests map[string][]uint64              `json:"digests"`
}

func loadExpected() (*expected, error) {
	b, err := expectedFS.ReadFile("expected.json")
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

func (e *expected) points(name string) []sim.LoadPointResult {
	if e == nil {
		return nil
	}
	return e.Points[name]
}

func (e *expected) digests(name string) []uint64 {
	if e == nil {
		return nil
	}
	return e.Digests[name]
}

func (e *expected) save(path string) error {
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checker compares each op's simulated result with the value pinned for
// its slot (under the default seed only) and with the first result the
// run saw for that slot (under every seed): simulation is deterministic,
// so a repeat that differs is as wrong as a pinned value that differs.
type checker[T comparable] struct {
	pinned []T
	seen   map[int]T
}

func (c *checker[T]) init(pinned []T) {
	c.pinned = pinned
	c.seen = make(map[int]T)
}

func (c *checker[T]) ok(slot int, got T) bool {
	if c.pinned != nil && (slot >= len(c.pinned) || c.pinned[slot] != got) {
		return false
	}
	if prev, seen := c.seen[slot]; seen {
		return prev == got
	}
	c.seen[slot] = got
	return true
}

// firsts returns the first result seen for slots 0..n-1, the values a
// pin records.
func (c *checker[T]) firsts(n int) ([]T, error) {
	out := make([]T, n)
	for i := range out {
		v, ok := c.seen[i]
		if !ok {
			return nil, fmt.Errorf("slot %d never ran", i)
		}
		out[i] = v
	}
	return out, nil
}

// mix derives independent 64-bit seeds from the workload seed
// (SplitMix64 finalizer over seed and salt).
func mix(seed, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
