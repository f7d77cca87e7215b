package core_test

import (
	"testing"
	"time"
)

// TestAskAllocsIndependentOfPoolSize guards the identity design: a
// warm serial Ask(1) + Tell allocates the same bounded number of
// objects on the 4^6 = 4,096-point grid as on the 8^6 = 262,144-point
// grid. Building a per-candidate key or copying the remaining pool on
// the ask path would make the count grow with the pool. Both grids
// have six parameters, because the surrogate fit allocates a fixed
// number of objects per parameter.
func TestAskAllocsIndependentOfPoolSize(t *testing.T) {
	const maxAllocs = 80
	var counts []float64
	for _, levels := range []int{4, 8} {
		at, value := warmGridAskTell(t, levels, 30)
		now := time.Unix(0, 0)
		counts = append(counts, testing.AllocsPerRun(20, func() { askTellOnce(t, at, value, now) }))
	}
	small, large := counts[0], counts[1]
	if large > maxAllocs || small > maxAllocs {
		t.Fatalf("Ask(1)+Tell allocates %.0f objects on 4^6 and %.0f on 8^6, want at most %d", small, large, maxAllocs)
	}
	if large != small {
		t.Fatalf("Ask(1)+Tell allocates %.0f objects on 4^6 but %.0f on 8^6: allocation grows with the pool", small, large)
	}
}
