package space_test

import (
	"math"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// FuzzGridIndexRoundTrip: for any discrete space shape and any index
// inside the grid, FromGridIndex64 → GridIndex must be the identity,
// the decode must agree with the streaming walk at that index, and
// Space.ID must equal the grid index. On the same grid extended by a
// continuous parameter — where IDs are hashes — History's duplicate
// detection must agree with a Space.Key reference.
func FuzzGridIndexRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(2), uint64(5), 0.25, -0.5)
	f.Add(uint8(1), uint8(1), uint8(1), uint64(0), 0.0, math.Copysign(0, -1))
	f.Add(uint8(6), uint8(5), uint8(9), uint64(123), 1.0, 1.0)
	f.Fuzz(func(t *testing.T, ca, cb, cc uint8, idx uint64, x, y float64) {
		cards := []int{int(ca%16) + 1, int(cb%16) + 1, int(cc%16) + 1}
		params := make([]space.Param, len(cards))
		for i, card := range cards {
			levels := make([]int, card)
			for l := range levels {
				levels[l] = l
			}
			params[i] = space.DiscreteInts(string(rune('a'+i)), levels...)
		}
		sp := space.New(params...)
		grid, ok := sp.GridSize64()
		if !ok || grid == 0 {
			t.Fatalf("grid %d ok=%v for cards %v", grid, ok, cards)
		}
		idx %= grid
		c := sp.FromGridIndex64(idx)
		if err := sp.Check(c); err != nil {
			t.Fatalf("FromGridIndex64(%d) invalid: %v", idx, err)
		}
		if got := uint64(sp.GridIndex(c)); got != idx {
			t.Fatalf("round trip %d → %v → %d", idx, c, got)
		}
		if id := sp.ID(c); id.Hashed() || uint64(id) != idx {
			t.Fatalf("ID(%v) = %#x, want grid index %d", c, uint64(id), idx)
		}
		seen := false
		sp.EachRange(idx, idx+1, func(at uint64, walked space.Config) bool {
			seen = true
			if at != idx || !walked.Equal(c) {
				t.Fatalf("EachRange at %d yields %v, FromGridIndex64 says %v", at, walked, c)
			}
			return true
		})
		if !seen {
			t.Fatalf("EachRange skipped unconstrained index %d", idx)
		}

		// Mixed space: the discrete digits of nearby grid indices, each
		// paired with one of a few continuous values (x, y, ±0), so
		// the sequence repeats some configurations and not others.
		mixed := space.New(append(params, space.Continuous("w", -1, 1))...)
		conts := []float64{clampUnit(x), clampUnit(y), 0, math.Copysign(0, -1)}
		h := core.NewHistory(mixed)
		keys := map[string]bool{}
		for j := uint64(0); j < 12; j++ {
			d := sp.FromGridIndex64((idx + j/3) % grid)
			m := append(d, conts[(j*j+idx)%uint64(len(conts))])
			if id := mixed.ID(m); !id.Hashed() {
				t.Fatalf("ID(%v) on a mixed space is not hashed", m)
			}
			key := mixed.Key(m)
			if h.Contains(m) != keys[key] {
				t.Fatalf("Contains(%v) = %v, Key reference says %v", m, h.Contains(m), keys[key])
			}
			if err := h.Add(m, float64(j)); (err != nil) != keys[key] {
				t.Fatalf("Add(%v) error %v, Key reference duplicate=%v", m, err, keys[key])
			}
			keys[key] = true
		}
		if h.Len() != len(keys) {
			t.Fatalf("history holds %d configurations, Key reference %d", h.Len(), len(keys))
		}
	})
}

// clampUnit maps any float into [-1, 1], NaN to 0.
func clampUnit(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v < -1:
		return -1
	case v > 1:
		return 1
	}
	return v
}
