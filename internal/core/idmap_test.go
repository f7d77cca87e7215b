package core

import (
	"testing"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// TestIDMapChainsHashCollisions forces three distinct configurations
// onto one hashed ID: each keeps its own entry through lookups,
// predicate searches and deletions in any order, and a grid-index ID
// is trusted without comparing configurations.
func TestIDMapChainsHashCollisions(t *testing.T) {
	const id = space.ID(1<<63 | 42)
	a, b, c := space.Config{0.5}, space.Config{0.25}, space.Config{-0.75}
	s := newConfigSet(nil, 0)
	for _, x := range []space.Config{a, b, c} {
		s.set(id, x, x)
	}
	if s.len() != 3 {
		t.Fatalf("len = %d after three colliding inserts, want 3", s.len())
	}
	for _, x := range []space.Config{a, b, c} {
		if got, ok := s.get(id, x); !ok || !got.Equal(x) {
			t.Fatalf("get(%v) = %v, %v", x, got, ok)
		}
	}
	if got, ok := s.find(id, func(x space.Config) bool { return x[0] < 0 }); !ok || !got.Equal(c) {
		t.Fatalf("find by predicate = %v, %v; want the chained %v", got, ok, c)
	}
	if s.has(id, space.Config{0.125}) {
		t.Fatal("a fourth configuration with the same hashed ID was found")
	}
	if !s.del(id, a) || s.has(id, a) || !s.has(id, b) || !s.has(id, c) {
		t.Fatal("deleting the primary entry lost a chained one")
	}
	if !s.del(id, c) || s.has(id, c) || !s.has(id, b) {
		t.Fatal("deleting a chained entry lost another")
	}
	if s.del(id, a) {
		t.Fatal("deleted an absent configuration")
	}
	if !s.del(id, b) || s.len() != 0 || len(s.m) != 0 || len(s.chain) != 0 {
		t.Fatalf("set not empty after deleting everything: len %d, m %d, chain %d", s.len(), len(s.m), len(s.chain))
	}

	s.set(7, a, a) // grid index: no comparison on lookup
	if !s.has(7, b) {
		t.Fatal("a grid-index ID hit was second-guessed")
	}
}
