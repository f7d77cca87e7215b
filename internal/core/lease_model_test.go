package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// leaseModel is the reference for AskTell's lease bookkeeping, keyed
// by Space.Key strings and independent of configuration IDs: the
// live leases with their deadlines, the evaluated set, and every key
// ever handed out (a re-lease of one counts a duplicate).
type leaseModel struct {
	live      map[string]time.Time
	evaluated map[string]bool
	handedOut map[string]bool
	dups      int64
}

func (m *leaseModel) expire(now time.Time) {
	for key, deadline := range m.live {
		if now.After(deadline) {
			delete(m.live, key)
		}
	}
}

func (m *leaseModel) free(grid int) int { return grid - len(m.evaluated) - len(m.live) }

// TestAskTellLeaseModel runs random sequences of Ask(k), Tell, Renew
// and clock advances past the TTL on a 4³ grid for each core engine,
// and checks AskTell against the string-keyed reference model: no live
// lease is handed out twice, no evaluated configuration is suggested
// again, and Leases and DuplicateSuggestions match the model's.
func TestAskTellLeaseModel(t *testing.T) {
	for _, engine := range []string{"ranking", "proposal", "sampling", "random", "grouped"} {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", engine, seed), func(t *testing.T) {
				runLeaseModel(t, engine, seed, 200)
			})
		}
	}
}

func runLeaseModel(t *testing.T, engine string, seed uint64, steps int) {
	sp := space.New(
		space.DiscreteInts("x", 0, 1, 2, 3),
		space.DiscreteInts("y", 0, 1, 2, 3),
		space.DiscreteInts("z", 0, 1, 2, 3),
	)
	const grid = 64
	value := func(c space.Config) float64 {
		return (c[0]-1)*(c[0]-1) + (c[1]-2)*(c[1]-2) + 0.5*c[2]
	}
	tn, err := NewTuner(sp, func(space.Config) float64 { panic("driven externally") },
		Options{Engine: engine, InitialSamples: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	at := NewAskTell(tn)
	m := &leaseModel{live: map[string]time.Time{}, evaluated: map[string]bool{}, handedOut: map[string]bool{}}
	r := stats.NewRNG(seed * 7717)
	now := time.Unix(1000, 0)
	ttl := func() time.Duration { return time.Duration(1+r.Intn(4)) * time.Second }
	liveKeys := func() []string {
		keys := make([]string, 0, len(m.live))
		for key := range m.live {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		return keys
	}
	configOf := func(key string) space.Config {
		for i := 0; i < grid; i++ {
			if c := sp.FromGridIndex(i); sp.Key(c) == key {
				return c
			}
		}
		t.Fatalf("no configuration has key %q", key)
		return nil
	}

	for step := 0; step < steps && len(m.evaluated) < grid; step++ {
		switch op := r.Intn(10); {
		case op < 4: // Ask
			k := 1 + r.Intn(3)
			d := ttl()
			m.expire(now)
			free := m.free(grid)
			picks, err := at.Ask(k, d, now)
			if err != nil {
				if free >= k {
					t.Fatalf("step %d: Ask(%d) failed with %d free: %v", step, k, free, err)
				}
				break // rolled back; the model is unchanged
			}
			if len(picks) < k && len(picks) != free {
				t.Fatalf("step %d: Ask(%d) returned %d with %d free", step, k, len(picks), free)
			}
			for _, c := range picks {
				key := sp.Key(c)
				if _, ok := m.live[key]; ok {
					t.Fatalf("step %d: %s handed out while its lease is live", step, key)
				}
				if m.evaluated[key] {
					t.Fatalf("step %d: evaluated %s suggested again", step, key)
				}
				if m.handedOut[key] {
					m.dups++
				}
				m.handedOut[key] = true
				m.live[key] = now.Add(d)
			}
		case op < 7: // Tell: mostly a leased pick, sometimes unsolicited or repeated
			var c space.Config
			if keys := liveKeys(); len(keys) > 0 && r.Intn(4) > 0 {
				c = configOf(keys[r.Intn(len(keys))])
			} else {
				c = sp.FromGridIndex(r.Intn(grid))
			}
			key := sp.Key(c)
			added, err := at.Tell(c, value(c))
			if err != nil {
				t.Fatalf("step %d: Tell %s: %v", step, key, err)
			}
			if added == m.evaluated[key] {
				t.Fatalf("step %d: Tell %s added=%v, evaluated before=%v", step, key, added, m.evaluated[key])
			}
			m.evaluated[key] = true
			delete(m.live, key)
		case op < 8: // Renew some live leases and one arbitrary configuration
			m.expire(now)
			var configs []space.Config
			for _, key := range liveKeys() {
				if r.Intn(2) == 0 {
					configs = append(configs, configOf(key))
				}
			}
			configs = append(configs, sp.FromGridIndex(r.Intn(grid)))
			d := ttl()
			renewed, lost := at.Renew(configs, d, now)
			wantRenewed := 0
			for _, c := range configs {
				if _, ok := m.live[sp.Key(c)]; ok {
					m.live[sp.Key(c)] = now.Add(d)
					wantRenewed++
				}
			}
			if renewed != wantRenewed || renewed+len(lost) != len(configs) {
				t.Fatalf("step %d: Renew = %d renewed, %d lost; model says %d of %d", step, renewed, len(lost), wantRenewed, len(configs))
			}
		case op < 9: // advance the clock, often past a TTL
			now = now.Add(time.Duration(r.Intn(3000)) * time.Millisecond)
		default: // compare the lease counts
			m.expire(now)
			if got := at.Leases(now); got != len(m.live) {
				t.Fatalf("step %d: Leases = %d, model has %d", step, got, len(m.live))
			}
			if got := tn.History().PendingLen(); got != len(m.live) {
				t.Fatalf("step %d: PendingLen = %d, model has %d live leases", step, got, len(m.live))
			}
		}
		if got := at.DuplicateSuggestions(); got != m.dups {
			t.Fatalf("step %d: DuplicateSuggestions = %d, model counts %d", step, got, m.dups)
		}
	}
}

// failingAcquirer is the ranking acquirer except that its third
// Propose call fails. It records the picks it hands out.
type failingAcquirer struct {
	calls int
	picks []space.Config
}

func (f *failingAcquirer) Propose(a *Acquisition, k int) ([]space.Config, error) {
	f.calls++
	if f.calls == 3 {
		return nil, fmt.Errorf("injected acquisition failure")
	}
	picks, err := rankingAcquirer{}.Propose(a, k)
	for _, c := range picks {
		f.picks = append(f.picks, c.Clone())
	}
	return picks, err
}

var testFailingAcquirer = &failingAcquirer{}

func init() {
	RegisterEngine(EngineSpec{
		Name: "test-fail-third-propose",
		Pool: PoolRequired,
		New: func(sp *space.Space, opts Options, pool *Pool) (Model, Acquirer, error) {
			*testFailingAcquirer = failingAcquirer{}
			return &TPEModel{cfg: opts.Surrogate}, testFailingAcquirer, nil
		},
	})
}

// TestAskRollbackIsNotADuplicate: when Ask fails mid-batch, the picks
// it had leased are rolled back, never handed out, and must not count
// as duplicate suggestions — not even the re-lease of a candidate
// whose earlier lease had expired. Only handing that candidate out
// again counts.
func TestAskRollbackIsNotADuplicate(t *testing.T) {
	sp := space.New(
		space.DiscreteInts("x", 0, 1, 2, 3),
		space.DiscreteInts("y", 0, 1, 2, 3),
	)
	tn, err := NewTuner(sp, func(space.Config) float64 { panic("driven externally") },
		Options{Engine: "test-fail-third-propose", InitialSamples: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	at := NewAskTell(tn)
	now := time.Unix(0, 0)
	for at.InitialPhase() {
		picks, err := at.Ask(1, time.Minute, now)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := at.Tell(picks[0], synthValue(picks[0])); err != nil {
			t.Fatal(err)
		}
	}
	first, err := at.Ask(1, time.Second, now) // Propose call 1
	if err != nil || len(first) != 1 {
		t.Fatalf("Ask(1) = %v, %v", first, err)
	}
	now = now.Add(2 * time.Second) // the lease lapses without a result
	// Propose call 2 re-picks the lapsed candidate, call 3 fails.
	if _, err := at.Ask(3, time.Minute, now); err == nil {
		t.Fatal("Ask(3) succeeded through an injected acquisition failure")
	}
	if got := at.Leases(now); got != 0 {
		t.Fatalf("Leases = %d after a failed Ask, want 0", got)
	}
	if !testFailingAcquirer.picks[1].Equal(first[0]) {
		t.Fatalf("the failed Ask first picked %v, not the lapsed %v", testFailingAcquirer.picks[1], first[0])
	}
	if got := at.DuplicateSuggestions(); got != 0 {
		t.Fatalf("DuplicateSuggestions = %d after the rollback, want 0", got)
	}
	again, err := at.Ask(1, time.Minute, now) // Propose call 4
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || !again[0].Equal(first[0]) {
		t.Fatalf("Ask after the rollback picked %v, want the lapsed %v", again, first[0])
	}
	if got := at.DuplicateSuggestions(); got != 1 {
		t.Fatalf("DuplicateSuggestions = %d after re-issuing the lapsed candidate, want 1", got)
	}
}

// TestAskTellHashedIDLeases: with a continuous parameter every
// configuration ID is a hash; leases still renew, expire and release
// through them.
func TestAskTellHashedIDLeases(t *testing.T) {
	sp := space.New(space.DiscreteInts("x", 0, 1, 2), space.Continuous("w", 0, 1))
	tn, err := NewTuner(sp, func(space.Config) float64 { panic("driven externally") },
		Options{InitialSamples: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	at := NewAskTell(tn)
	now := time.Unix(0, 0)
	picks, err := at.Ask(3, time.Second, now)
	if err != nil || len(picks) != 3 {
		t.Fatalf("Ask(3) = %v, %v", picks, err)
	}
	if !sp.ID(picks[0]).Hashed() {
		t.Fatalf("ID(%v) is not hashed on a space with a continuous parameter", picks[0])
	}
	if renewed, lost := at.Renew(picks[:1], time.Minute, now); renewed != 1 || len(lost) != 0 {
		t.Fatalf("Renew = %d renewed, %d lost; want 1, 0", renewed, len(lost))
	}
	now = now.Add(2 * time.Second)
	if got := at.Leases(now); got != 1 {
		t.Fatalf("Leases = %d after two of three leases expired, want 1", got)
	}
	if got := tn.History().PendingLen(); got != 1 {
		t.Fatalf("PendingLen = %d, want the renewed lease's 1", got)
	}
	if added, err := at.Tell(picks[0], 1); err != nil || !added {
		t.Fatalf("Tell = %v, %v", added, err)
	}
	if got := at.Leases(now); got != 0 || tn.History().PendingLen() != 0 {
		t.Fatalf("Leases = %d, PendingLen = %d after the result, want 0, 0", got, tn.History().PendingLen())
	}
}
