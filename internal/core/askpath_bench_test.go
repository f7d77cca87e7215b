package core_test

// Benchmarks for the steady-state ask/tell hot path: a warm
// 40-observation Kripke-exec session asked for its next candidate
// over and over. This is the daemon's serving loop (hiperbotd
// Suggest), where selection overhead *is* the workload — unlike the
// paper's offline setting (§VII), where one application run dwarfs it.
// EXPERIMENTS.md records the before/after numbers for the
// fit-incremental + scratch-buffer optimization.

import (
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/apps/kripke"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// warmKripkeTuner returns a ranking tuner over the Kripke exec table
// warmed with warm observations (20 initial + model-guided up to warm).
func warmKripkeTuner(tb testing.TB, warm int) *core.Tuner {
	tb.Helper()
	tbl := kripke.Exec().Table()
	cands := make([]space.Config, tbl.Len())
	for i := 0; i < tbl.Len(); i++ {
		cands[i] = tbl.Config(i)
	}
	tn, err := core.NewTuner(tbl.Space, tbl.Objective(), core.Options{
		Seed:       42,
		Candidates: cands,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for tn.Evaluations() < warm {
		if _, err := tn.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return tn
}

// BenchmarkSelectBatchWarm measures one model-guided selection with no
// intervening observation — the pure Ask path (fit + score + argmax).
func BenchmarkSelectBatchWarm(b *testing.B) {
	tn := warmKripkeTuner(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		picks, err := tn.SelectBatch(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(picks) != 1 {
			b.Fatal("no pick")
		}
	}
}

// BenchmarkAskWarmSteadyState measures AskTell.Ask on the warm session
// with leases expiring between calls, so the history never changes —
// the shape of a worker fleet polling a session between evaluations.
func BenchmarkAskWarmSteadyState(b *testing.B) {
	at := core.NewAskTell(warmKripkeTuner(b, 40))
	now := time.Unix(0, 0)
	const ttl = time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(2 * ttl) // previous lease has lapsed
		picks, err := at.Ask(1, ttl, now)
		if err != nil {
			b.Fatal(err)
		}
		if len(picks) != 1 {
			b.Fatal("no pick")
		}
	}
}

// BenchmarkAskTellWarm interleaves one Tell per Ask — the steady-state
// serving loop once workers report results (each Tell invalidates the
// fitted model, so this measures the incremental refit too).
func BenchmarkAskTellWarm(b *testing.B) {
	tbl := kripke.Exec().Table()
	at := core.NewAskTell(warmKripkeTuner(b, 40))
	now := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Minute)
		picks, err := at.Ask(1, time.Minute, now)
		if err != nil {
			b.Fatal(err)
		}
		if len(picks) == 0 {
			// The finite table is exhausted; restart on a fresh warm
			// session outside the timed region.
			b.StopTimer()
			at = core.NewAskTell(warmKripkeTuner(b, 40))
			b.StartTimer()
			continue
		}
		v, ok := tbl.Lookup(picks[0])
		if !ok {
			b.Fatal("pick outside the table")
		}
		if _, err := at.Tell(picks[0], v); err != nil {
			b.Fatal(err)
		}
	}
}

// warmGridAskTell returns a ranking ask/tell session over the
// levels^6 grid, driven serially (Ask(1) + Tell) through warm
// evaluations, and its objective.
func warmGridAskTell(tb testing.TB, levels, warm int) (*core.AskTell, func(space.Config) float64) {
	tb.Helper()
	lv := make([]int, levels)
	for i := range lv {
		lv[i] = i
	}
	ps := make([]space.Param, 6)
	for i := range ps {
		ps[i] = space.DiscreteInts(string(rune('a'+i)), lv...)
	}
	sp := space.New(ps...)
	value := func(c space.Config) float64 {
		v := 1.0
		for i, x := range c {
			d := x - float64((3*i+1)%levels)
			v += (1 + 0.1*float64(i)) * d * d
		}
		return v
	}
	tn, err := core.NewTuner(sp, func(space.Config) float64 { panic("driven externally") },
		core.Options{Seed: 7, Parallelism: 2})
	if err != nil {
		tb.Fatal(err)
	}
	at := core.NewAskTell(tn)
	now := time.Unix(0, 0)
	for tn.Evaluations() < warm {
		askTellOnce(tb, at, value, now)
	}
	return at, value
}

// askTellOnce leases one candidate and reports its value.
func askTellOnce(tb testing.TB, at *core.AskTell, value func(space.Config) float64, now time.Time) {
	picks, err := at.Ask(1, time.Minute, now)
	if err != nil {
		tb.Fatal(err)
	}
	if len(picks) != 1 {
		tb.Fatal("no pick")
	}
	if _, err := at.Tell(picks[0], value(picks[0])); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkAskTellGrid262k is the serving loop of a session on the
// 8^6 = 262,144-point grid: one Ask(1) and one Tell per iteration,
// ranking over the whole materialized pool.
func BenchmarkAskTellGrid262k(b *testing.B) {
	at, value := warmGridAskTell(b, 8, 40)
	now := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		askTellOnce(b, at, value, now)
	}
}
