package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// Pool is a finite candidate set with O(1) evaluated-candidate
// removal and a lazily built columnar view for batch scoring. It is
// the state the Ranking strategy used to keep inline in the Tuner,
// extracted so every pool-backed engine (TPE ranking, random
// subset, GEIST's graph propagation) shares one implementation.
//
// Candidates are found by identity (space.ID). When every candidate's
// ID is its own index — an enumerated, unconstrained grid — the ID is
// the candidate index and no lookup map exists at all.
type Pool struct {
	sp         *space.Space
	candidates []space.Config
	remaining  []int        // candidate indices not yet evaluated
	pos        []int32      // candidate index → position in remaining, -1 once evaluated
	dense      bool         // candidate i has ID i; index is unused
	index      idMap[int32] // candidate → candidate index (immutable)
	batch      *space.Batch // columnar candidates, built on first use
}

// NewPool indexes the candidate set. Duplicate candidates and empty
// sets are rejected.
func NewPool(sp *space.Space, candidates []space.Config) (*Pool, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: empty candidate set")
	}
	if len(candidates) > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d candidates exceed the pool limit", len(candidates))
	}
	p := &Pool{
		sp:         sp,
		candidates: candidates,
		remaining:  make([]int, len(candidates)),
		pos:        make([]int32, len(candidates)),
		dense:      true,
	}
	for i, c := range candidates {
		p.remaining[i] = i
		p.pos[i] = int32(i)
		if p.dense && sp.ID(c) != space.ID(i) {
			p.dense = false
		}
	}
	if p.dense {
		return p, nil // IDs 0..n-1 are distinct: no duplicates possible
	}
	p.index = newIDMap(len(candidates), func(i int32) space.Config { return candidates[i] })
	for i, c := range candidates {
		id := sp.ID(c)
		if p.index.has(id, c) {
			return nil, fmt.Errorf("core: duplicate candidate %s", sp.Describe(c))
		}
		p.index.set(id, c, int32(i))
	}
	return p, nil
}

// Size returns the total number of candidates (evaluated or not).
func (p *Pool) Size() int { return len(p.candidates) }

// RemainingCount returns how many candidates are not yet evaluated.
func (p *Pool) RemainingCount() int { return len(p.remaining) }

// Remaining returns the indices of not-yet-evaluated candidates. The
// order is maintained by swap-removal, so it is deterministic for a
// fixed evaluation sequence but not sorted. Callers must not mutate
// the slice.
func (p *Pool) Remaining() []int { return p.remaining }

// Candidate returns candidate i.
func (p *Pool) Candidate(i int) space.Config { return p.candidates[i] }

// Candidates returns the full candidate slice (callers must not
// mutate it).
func (p *Pool) Candidates() []space.Config { return p.candidates }

// IndexOf returns c's candidate index, or -1 when c is not in the
// pool.
func (p *Pool) IndexOf(c space.Config) int {
	id := p.sp.ID(c)
	if p.dense {
		if id < space.ID(len(p.candidates)) {
			return int(id)
		}
		return -1
	}
	if i, ok := p.index.get(id, c); ok {
		return int(i)
	}
	return -1
}

// MarkEvaluated removes c from the remaining set in O(1); unknown or
// already-removed configurations are ignored.
func (p *Pool) MarkEvaluated(c space.Config) {
	ci := p.IndexOf(c)
	if ci < 0 || p.pos[ci] < 0 {
		return
	}
	i := p.pos[ci]
	last := len(p.remaining) - 1
	moved := p.remaining[last]
	p.remaining[i] = moved
	p.pos[moved] = i
	p.remaining = p.remaining[:last]
	p.pos[ci] = -1
}

// drawFree returns up to k distinct remaining candidates that are not
// pending in h, drawn uniformly with r. It makes exactly the r.Intn
// calls of a Fisher–Yates pass over a copy of Remaining() with the
// pending candidates filtered out, without making that copy: the few
// pending positions are stepped past, and the swaps are recorded
// sparsely.
func (p *Pool) drawFree(h *History, r *stats.RNG, k int) []space.Config {
	var skip []int // ascending positions in remaining of pending candidates
	for _, pe := range h.pend {
		if ci := p.IndexOf(pe.c); ci >= 0 && p.pos[ci] >= 0 {
			skip = append(skip, int(p.pos[ci]))
		}
	}
	sort.Ints(skip)
	n := len(p.remaining) - len(skip)
	if k > n {
		k = n
	}
	swapped := make(map[int]int) // virtual position → candidate index
	at := func(j int) int {
		if ci, ok := swapped[j]; ok {
			return ci
		}
		for _, s := range skip {
			if s > j {
				break
			}
			j++
		}
		return p.remaining[j]
	}
	out := make([]space.Config, 0, k)
	for len(out) < k {
		pick := r.Intn(n)
		out = append(out, p.candidates[at(pick)])
		n--
		swapped[pick] = at(n)
	}
	return out
}

// Batch returns the columnar view of the full candidate set, building
// it on first use. Row i of the batch is candidate i, so scores
// computed over it are indexed by candidate index.
func (p *Pool) Batch() (*space.Batch, error) {
	if p.batch == nil {
		b, err := space.NewBatch(p.sp, p.candidates)
		if err != nil {
			return nil, err
		}
		p.batch = b
	}
	return p.batch, nil
}
