package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcautotune/hiperbot/client"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/server"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// The traced run replays generation 0 of the untraced run — every
// campaign created at set-up, driven to its budget in the same order —
// at three depths, each from a fresh set-up. Spans are timed from this
// package around public calls, kept in memory and written at the end.

// requestIDHeader correlates a client span with its handler span.
const requestIDHeader = "X-Tunebench-Request"

// tracer collects the spans of every traced depth on one timeline,
// with span ids unique across depths. Handler spans arrive from server
// goroutines, so appends are locked.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID returns a span id no other span of the tracer has.
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// all returns every span added so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// idRoundTripper stamps each request with the span id of its client
// call, which the worker sets before each call.
type idRoundTripper struct {
	next http.RoundTripper
	id   atomic.Uint64
}

func (r *idRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set(requestIDHeader, strconv.FormatUint(r.id.Load(), 10))
	return r.next.RoundTrip(req)
}

// gen0 lists every generation-0 campaign by worker, in drive order.
func gen0(w *workload, seed uint64) [][]*campaign {
	out := make([][]*campaign, workers)
	for wi := range out {
		for s := 0; s < w.perWorker; s++ {
			out[wi] = append(out[wi], newCampaign(w, wi, s, 0, seed))
		}
	}
	return out
}

// driveGen0 runs step for every campaign of each worker until all are
// at budget, one goroutine per worker, in the timed phase's order:
// window by window, round-robin within a window.
func driveGen0(w *workload, camps [][]*campaign, step func(wi int, c *campaign) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wi := range camps {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			cs := camps[wi]
			for lo := 0; lo < len(cs); lo += w.window {
				win := cs[lo:min(lo+w.window, len(cs))]
				for incomplete(w, win) {
					for _, c := range win {
						if c.evals == w.budget {
							continue
						}
						if err := step(wi, c); err != nil {
							errs[wi] = err
							return
						}
					}
				}
			}
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkSequences is the replay gate: a traced pass must suggest
// exactly what the untraced run suggested, campaign by campaign.
func checkSequences(pass string, camps [][]*campaign, want map[string][]string) error {
	for _, cs := range camps {
		for _, c := range cs {
			got, exp := c.suggestion, want[c.id]
			for i := 0; i < max(len(got), len(exp)); i++ {
				if i >= len(got) || i >= len(exp) || got[i] != exp[i] {
					return fmt.Errorf("%s: campaign %s departs from the untraced run's suggestions at suggestion %d of %d", pass, c.id, i, len(exp))
				}
			}
		}
	}
	return nil
}

func bestOf(camps [][]*campaign) []float64 {
	var out []float64
	for _, cs := range camps {
		for _, c := range cs {
			out = append(out, c.best)
		}
	}
	return out
}

// passHTTP is depth 1: client.Suggest/Observe spans with the wrapped
// Server.ServeHTTP spans as children.
type passHTTP struct {
	evalsPerS                        float64
	clientSuggestSelf, clientObsSelf []float64 // ms
	serverSuggest, serverObserve     []float64 // ms
	best                             []float64
}

func tracePassHTTP(tr *tracer, w *workload, seed uint64, dir string, want map[string][]string) (*passHTTP, error) {
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			start := tr.now()
			h.ServeHTTP(rw, r)
			id, err := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
			if err != nil || id == 0 {
				return // set-up traffic is not traced
			}
			name := "server." + r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
			tr.add(span{ID: tr.newID(), Parent: id, Name: name, Start: start, End: tr.now()})
		})
	}
	d, err := startDaemon(w, dir, wrap)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rts := make([]*idRoundTripper, workers)
	clients := make([]*client.Client, workers)
	for wi := range clients {
		cl, tp, err := newClient(d.http.URL, func(next http.RoundTripper) http.RoundTripper {
			rts[wi] = &idRoundTripper{next: next}
			return rts[wi]
		})
		if err != nil {
			return nil, err
		}
		defer tp.CloseIdleConnections()
		clients[wi] = cl
	}
	camps := gen0(w, seed)
	for wi, cs := range camps {
		for _, c := range cs {
			if _, err := clients[wi].CreateSession(context.Background(), c.id, w.spaceJSON, w.sessionOptions(c.seed)); err != nil {
				return nil, fmt.Errorf("trace http: create %s: %w", c.id, err)
			}
		}
	}
	start := time.Now()
	err = driveGen0(w, camps, func(wi int, c *campaign) error {
		rt := rts[wi]
		sid, oid := tr.newID(), tr.newID()
		rt.id.Store(sid)
		_, tm, err := stepHTTP(context.Background(), w, clients[wi], c, func() { rt.id.Store(oid) })
		if err != nil {
			return err
		}
		tr.add(span{ID: sid, Name: "client.suggest", Start: int64(tm.suggest.Sub(tr.epoch)), End: int64(tm.suggestEnd.Sub(tr.epoch))},
			span{ID: oid, Name: "client.observe", Start: int64(tm.observe.Sub(tr.epoch)), End: int64(tm.observeEnd.Sub(tr.epoch))})
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("trace http: %w", err)
	}
	if err := checkSequences("trace http", camps, want); err != nil {
		return nil, err
	}
	spans := tr.all()
	p := &passHTTP{evalsPerS: float64(w.sessions()*w.budget) / elapsed.Seconds(), best: bestOf(camps)}
	self := selfTimes(spans)
	for _, s := range spans {
		d := ms(s.dur())
		switch s.Name {
		case "client.suggest":
			p.clientSuggestSelf = append(p.clientSuggestSelf, ms(self[s.ID]))
		case "client.observe":
			p.clientObsSelf = append(p.clientObsSelf, ms(self[s.ID]))
		case "server.suggest":
			p.serverSuggest = append(p.serverSuggest, d)
		case "server.observe":
			p.serverObserve = append(p.serverObserve, d)
		}
	}
	return p, nil
}

// passStore is depth 2: the same steps against server.Store in
// process, split into lookup (WithSession to callback entry), session
// work, and release (callback return to WithSession return).
type passStore struct {
	lookup, release          []float64 // ms
	sessSuggest, sessObserve []float64 // ms
	labelsUs                 []float64 // per candidate
	createMs                 []float64
	lookups                  int64
	stats                    server.StoreStats
	journalBytes             int64
	openMsPerSession         float64
	best                     []float64
	// rehydrated lists, per worker and campaign, the indices of the
	// store calls (suggest = 2×step, observe = 2×step+1) that found the
	// session rebuilt from disk since its previous call.
	rehydrated []map[string][]int
}

func tracePassStore(tr *tracer, w *workload, seed uint64, dir string, want map[string][]string) (*passStore, error) {
	dir = w.storeDir(dir)
	if err := emptyDir(dir); err != nil {
		return nil, err
	}
	defer emptyDir(dir)
	st, err := server.OpenStoreWithConfig(dir, w.store)
	if err != nil {
		return nil, err
	}
	defer func() { st.Close() }()
	p := &passStore{}
	camps := gen0(w, seed)
	for _, cs := range camps {
		for _, c := range cs {
			t0 := time.Now()
			if _, err := st.Create(c.id, w.spaceJSON, w.sessionOptions(c.seed)); err != nil {
				return nil, fmt.Errorf("trace store: create %s: %w", c.id, err)
			}
			p.createMs = append(p.createMs, ms(time.Since(t0)))
		}
	}
	type local struct {
		lookup, release, sessSuggest, sessObserve, labelsUs []float64
		spans                                               []span
		// The Session each campaign was last served by, and how many
		// calls it has had: a new Session means the store rehydrated it.
		last  map[string]*server.Session
		calls map[string]int
	}
	locals := make([]local, workers)
	for wi := range locals {
		locals[wi].last = make(map[string]*server.Session)
		locals[wi].calls = make(map[string]int)
	}
	p.rehydrated = make([]map[string][]int, workers)
	before := st.Stats()
	err = driveGen0(w, camps, func(wi int, c *campaign) error {
		l := &locals[wi]
		k := min(w.batch, w.budget-c.evals)
		var picks []space.Config
		call := func(name string, fn func(*server.Session) error) error {
			id := tr.newID()
			var t1, t2 int64
			t0 := tr.now()
			var served *server.Session
			err := st.WithSession(c.id, func(s *server.Session) error {
				t1 = tr.now()
				err := fn(s)
				t2 = tr.now()
				served = s
				return err
			})
			t3 := tr.now()
			if err != nil {
				return fmt.Errorf("trace store: %s %s: %w", name, c.id, err)
			}
			if prev := l.last[c.id]; prev != nil && prev != served {
				if p.rehydrated[wi] == nil {
					p.rehydrated[wi] = make(map[string][]int)
				}
				p.rehydrated[wi][c.id] = append(p.rehydrated[wi][c.id], l.calls[c.id])
			}
			l.last[c.id] = served
			l.calls[c.id]++
			l.spans = append(l.spans,
				span{ID: id, Name: "store." + name, Start: t0, End: t3},
				span{ID: tr.newID(), Parent: id, Name: "store.lookup", Start: t0, End: t1},
				span{ID: tr.newID(), Parent: id, Name: "session." + name, Start: t1, End: t2},
				span{ID: tr.newID(), Parent: id, Name: "store.release", Start: t2, End: t3})
			l.lookup = append(l.lookup, ms(time.Duration(t1-t0)))
			l.release = append(l.release, ms(time.Duration(t3-t2)))
			if name == "suggest" {
				l.sessSuggest = append(l.sessSuggest, ms(time.Duration(t2-t1)))
			} else {
				l.sessObserve = append(l.sessObserve, ms(time.Duration(t2-t1)))
			}
			return nil
		}
		err := call("suggest", func(s *server.Session) error {
			var err error
			picks, _, err = s.Suggest(k, lease)
			return err
		})
		if err != nil {
			return err
		}
		// The wire round trip of a candidate: Labels on the server,
		// FromLabels when the result comes back.
		for _, cfg := range picks {
			t0 := time.Now()
			back, err := w.space.FromLabels(w.space.Labels(cfg))
			l.labelsUs = append(l.labelsUs, float64(time.Since(t0))/float64(time.Microsecond))
			if err != nil || !slices.Equal(back, cfg) {
				return fmt.Errorf("trace store: labels round trip of %v: %v", cfg, err)
			}
		}
		if err := c.record(w, picks, len(picks), k); err != nil {
			return err
		}
		err = call("observe", func(s *server.Session) error {
			for _, cfg := range picks {
				added, err := s.ObserveResult(cfg, w.objective(cfg), nil)
				if err != nil {
					return err
				}
				if !added {
					return fmt.Errorf("result %v not added", cfg)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		c.evals += len(picks)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := checkSequences("trace store", camps, want); err != nil {
		return nil, err
	}
	after := st.Stats()
	p.stats = server.StoreStats{
		Evaluations:  after.Evaluations - before.Evaluations,
		Evictions:    after.Evictions - before.Evictions,
		Rehydrations: after.Rehydrations - before.Rehydrations,
		Compactions:  after.Compactions - before.Compactions,
	}
	for _, l := range locals {
		p.lookup = append(p.lookup, l.lookup...)
		p.release = append(p.release, l.release...)
		p.sessSuggest = append(p.sessSuggest, l.sessSuggest...)
		p.sessObserve = append(p.sessObserve, l.sessObserve...)
		p.labelsUs = append(p.labelsUs, l.labelsUs...)
		tr.add(l.spans...)
	}
	p.lookups = int64(len(p.lookup))
	p.best = bestOf(camps)
	if !w.durable {
		return p, nil
	}
	if err := st.Flush(); err != nil {
		return nil, err
	}
	if p.journalBytes, err = journalBytes(dir); err != nil {
		return nil, err
	}
	acked := make(map[string]int)
	for _, cs := range camps {
		for _, c := range cs {
			acked[c.id] = c.evals
		}
	}
	t0 := time.Now()
	if err := st.Close(); err != nil {
		return nil, err
	}
	if st, err = server.OpenStoreWithConfig(dir, w.store); err != nil {
		return nil, fmt.Errorf("trace store: reopen: %w", err)
	}
	infos := st.Infos()
	p.openMsPerSession = ms(time.Since(t0)) / float64(len(acked))
	if err := checkResumed(infos, acked); err != nil {
		return nil, err
	}
	return p, nil
}

// journalBytes sums the journal and snapshot files under dir.
func journalBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if ext := filepath.Ext(e.Name()); ext != ".jsonl" && ext != ".snap" {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// passCore is depth 3: core.NewTuner + core.NewAskTell with the
// options the daemon resolves, one campaign after another on one
// goroutine so the allocation counter around Ask is the Ask's own.
type passCore struct {
	fit, ask, tell []float64 // ms; fit per model-phase Ask, tell per observation
	askAllocKB     []float64
	dups           int64
	suggested      int64
	best           []float64
}

func tracePassCore(w *workload, seed uint64, rehydrated map[string][]int, want map[string][]string) (*passCore, error) {
	p := &passCore{}
	camps := gen0(w, seed)
	var m0, m1 runtime.MemStats
	for _, cs := range camps {
		for _, c := range cs {
			o := w.sessionOptions(c.seed)
			opts := core.Options{
				InitialSamples:     o.InitialSamples,
				Seed:               o.Seed,
				ProposalCandidates: o.ProposalCandidates,
				PoolCap:            o.PoolCap,
				CandidateSamples:   o.CandidateSamples,
				Liar:               o.Liar,
				Groups:             o.Groups,
				Engine:             strings.ToLower(o.Strategy),
			}
			var t *core.Tuner
			var at *core.AskTell
			// open builds the session's tuner the way the store does: a
			// fresh tuner, then the acknowledged history replayed into it
			// when the session is rehydrated from disk.
			open := func(obs []core.Observation) error {
				var err error
				if t, err = core.NewTuner(w.space, w.objective, opts); err != nil {
					return fmt.Errorf("trace core: %s: %w", c.id, err)
				}
				if len(obs) > 0 {
					if err := t.ResumeObs(obs); err != nil {
						return fmt.Errorf("trace core: %s: resume: %w", c.id, err)
					}
				}
				at = core.NewAskTell(t)
				return nil
			}
			if err := open(nil); err != nil {
				return nil, err
			}
			calls := 0
			reopen := func() error {
				defer func() { calls++ }()
				if !slices.Contains(rehydrated[c.id], calls) {
					return nil
				}
				return open(slices.Clone(t.History().Observations()))
			}
			for c.evals < w.budget {
				k := min(w.batch, w.budget-c.evals)
				if err := reopen(); err != nil {
					return nil, err
				}
				if !at.InitialPhase() {
					t0 := time.Now()
					if err := t.Model().Fit(t.History()); err != nil {
						return nil, fmt.Errorf("trace core: %s: fit: %w", c.id, err)
					}
					p.fit = append(p.fit, ms(time.Since(t0)))
				}
				runtime.ReadMemStats(&m0)
				t1 := time.Now()
				picks, err := at.Ask(k, lease, t1)
				d := time.Since(t1)
				runtime.ReadMemStats(&m1)
				if err != nil {
					return nil, fmt.Errorf("trace core: %s: ask: %w", c.id, err)
				}
				p.ask = append(p.ask, ms(d))
				p.askAllocKB = append(p.askAllocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
				if err := c.record(w, picks, len(picks), k); err != nil {
					return nil, err
				}
				if err := reopen(); err != nil {
					return nil, err
				}
				for _, cfg := range picks {
					t2 := time.Now()
					added, err := at.TellObs(core.Observation{Config: cfg, Value: w.objective(cfg)})
					p.tell = append(p.tell, ms(time.Since(t2)))
					if err != nil || !added {
						return nil, fmt.Errorf("trace core: %s: tell %v: added=%v err=%v", c.id, cfg, added, err)
					}
				}
				c.evals += len(picks)
				p.suggested += int64(len(picks))
			}
			p.dups += at.DuplicateSuggestions()
		}
	}
	if err := checkSequences("trace core", camps, want); err != nil {
		return nil, err
	}
	p.best = bestOf(camps)
	return p, nil
}
