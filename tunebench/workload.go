package main

import (
	"fmt"
	"math"
	"time"

	"github.com/hpcautotune/hiperbot/internal/apps/compile40"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/server"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// workers is the closed-loop client count. It matches the two cores
// the benchmark is calibrated on: more workers than cores measures the
// scheduler, not the service.
const workers = 2

// lease is long enough that no lease expires during a run, so the
// suggestion sequence of a session depends only on its seed.
const lease = 10 * time.Minute

// workload is one traffic mix. Every session belongs to one worker,
// which drives it serially, so a session's suggestions are a pure
// function of its seed.
type workload struct {
	name string
	why  string

	space     *space.Space
	spaceJSON []byte // the space's wire form, as sessions are created with it
	objective func(space.Config) float64
	bestKnown float64 // the objective's optimum (> 0)

	perWorker int // sessions (campaign slots) each worker owns
	window    int // slots a worker drives at a time (its working set)
	batch     int // candidates per suggest call
	budget    int // evaluations per campaign
	opts      httpapi.SessionOptions
	// durable workloads journal under the run's directory with store,
	// and restart after the timed phase; the others use an in-memory
	// store, as the daemon does without -data.
	durable bool
	store   server.StoreConfig
	// repeatS is how many seconds set-up, and a durable workload's
	// restart, are repeated for (see repeatMore).
	repeatS float64
}

// durableStore is hiperbotd's default journaling, except that fsync is
// off: real-disk fsync latency is a property of the host, which the
// benchmark leaves unmeasured. Snapshot compaction still fsyncs.
func durableStore() server.StoreConfig {
	return server.StoreConfig{
		Fsync:           server.FsyncNever,
		FlushInterval:   100 * time.Millisecond,
		FlushBytes:      64 << 10,
		SnapshotEvents:  4096,
		SnapshotBytes:   4 << 20,
		MaxLiveSessions: 128,
	}
}

// workloadNames lists the workloads in the order one full sweep runs
// them. durable-churn is not among BENCHMARK.json's workloads: its
// set-up creates 512 journals, and on a shared disk its median set-up
// time moved by up to a third between sets of ten runs.
var workloadNames = []string{"grid262k-campaigns", "small-grid-fleet", "durable-churn", "compile40-grouped"}

// newWorkload builds a workload by name. tiny shrinks every count, and
// repeats set-up and restart only minRepeats times, so the whole
// workload runs in about a second (the smoke test).
func newWorkload(name string, tiny bool) (*workload, error) {
	var w *workload
	var err error
	switch name {
	case "grid262k-campaigns":
		params := 6
		if tiny {
			params = 4
		}
		sp := gridSpace(params, 8)
		w = &workload{
			why:       "acquisition dominates: ranking over a materialised 262,144-point pool",
			space:     sp,
			objective: gridObjective,
			bestKnown: gridOptimum(sp),
			perWorker: 1, batch: 1, budget: 60,
			durable: true, store: durableStore(),
		}
	case "small-grid-fleet":
		sp := gridSpace(3, 8)
		w = &workload{
			why:       "per-request core work is small: HTTP/JSON, store lookup and session lock dominate",
			space:     sp,
			objective: gridObjective,
			bestKnown: gridOptimum(sp),
			perWorker: 128, batch: 1, budget: 64,
		}
	case "durable-churn":
		sp := gridSpace(3, 8)
		w = &workload{
			why:       "store-bound: 512 sessions over a 128-session cap, each campaign rehydrated and evicted, every observe journaled",
			space:     sp,
			objective: gridObjective,
			bestKnown: gridOptimum(sp),
			perWorker: 256, window: 16, batch: 4, budget: 64,
			durable: true, store: durableStore(),
		}
	case "compile40-grouped":
		w = &workload{
			why:       "acquisition without a materialised pool: sampled pool plus per-group sub-enumeration",
			space:     compile40.Space(),
			objective: compile40.Evaluate,
			bestKnown: compile40.Evaluate(compile40Best()),
			perWorker: 8, batch: 4, budget: 200,
			opts: httpapi.SessionOptions{Strategy: "grouped", Groups: compile40.Groups},
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.name = name
	if w.spaceJSON, err = w.space.MarshalJSON(); err != nil {
		return nil, err
	}
	if w.window == 0 {
		w.window = w.perWorker
	}
	w.repeatS = repeatSeconds
	if tiny {
		w.repeatS = 0
		w.perWorker = min(w.perWorker, 3)
		w.window = min(w.window, w.perWorker)
		w.budget = 12
		w.opts.InitialSamples = 8
		if w.durable {
			w.store.MaxLiveSessions = 2
		}
	}
	return w, nil
}

// storeDir is the store directory for a daemon whose journal would
// live at path: path itself for a durable workload, "" (in memory)
// otherwise.
func (w *workload) storeDir(path string) string {
	if w.durable {
		return path
	}
	return ""
}

// sessions is the number of campaign slots over all workers.
func (w *workload) sessions() int { return workers * w.perWorker }

// gridSpace is a params-dimensional grid of levels integer levels.
func gridSpace(params, levels int) *space.Space {
	ps := make([]space.Param, params)
	vals := make([]int, levels)
	for v := range vals {
		vals[v] = v
	}
	for d := range ps {
		ps[d] = space.DiscreteInts(fmt.Sprintf("p%d", d), vals...)
	}
	return space.New(ps...)
}

// gridObjective is a deterministic multimodal penalty: each dimension
// prefers a different level, adjacent equal levels cost extra, and the
// constant 1 keeps the optimum positive so regret is a ratio.
func gridObjective(c space.Config) float64 {
	v := 1.0
	for d := range c {
		diff := c[d] - float64((3*d+1)%8)
		v += diff * diff
	}
	for d := 1; d < len(c); d++ {
		if c[d] == c[d-1] {
			v += 0.5
		}
	}
	return v
}

// gridOptimum finds the objective's minimum on sp exhaustively.
func gridOptimum(sp *space.Space) float64 {
	best := math.Inf(1)
	for _, c := range sp.Enumerate() {
		best = min(best, gridObjective(c))
	}
	return best
}

// compile40Best is the all-best flag assignment of the compile40
// performance model: every family's knob at level 2 except -O3, every
// flag on except nested, frameptr and guard.
func compile40Best() space.Config {
	sp := compile40.Space()
	best := make(space.Config, sp.NumParams())
	for i := range best {
		best[i] = 1
	}
	for _, name := range []string{"optlevel", "vecwidth", "tile", "threads", "fpmodel", "isa", "ltomode", "malloc"} {
		best[sp.IndexOf(name)] = 2
	}
	best[sp.IndexOf("optlevel")] = 3
	for _, name := range []string{"nested", "frameptr", "guard"} {
		best[sp.IndexOf(name)] = 0
	}
	return best
}

// campaignSeed derives the session seed of one campaign from the run
// seed, so every campaign of a run is reproducible on its own.
func campaignSeed(seed uint64, worker, slot, gen int) uint64 {
	x := seed ^ uint64(worker)<<48 ^ uint64(slot)<<24 ^ uint64(gen)
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return (x ^ x>>31) | 1
}

// campaignID names a campaign's session.
func campaignID(worker, slot, gen int) string {
	return fmt.Sprintf("w%d-s%d-g%d", worker, slot, gen)
}

// sessionOptions returns the create options of one campaign.
func (w *workload) sessionOptions(seed uint64) httpapi.SessionOptions {
	o := w.opts
	o.Seed = seed
	return o
}
