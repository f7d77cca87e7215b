package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/hpcautotune/hiperbot/client"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/server"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// Set-up and restart are repeated, and their medians reported: at
// least minRepeats times, then until repeatSeconds have been spent on
// them. A short set-up or restart is repeated more often, so each
// median rests on enough time that a burst of load elsewhere on the
// host moves it little. maxRepeats only guards against a set-up that
// takes next to no time.
const (
	minRepeats    = 5
	maxRepeats    = 1000
	repeatSeconds = 2.0
)

// repeatMore reports whether another repetition is due after the
// durations (in seconds) measured so far.
func (w *workload) repeatMore(done []float64) bool {
	var sum float64
	for _, d := range done {
		sum += d
	}
	return len(done) < minRepeats || (sum < w.repeatS && len(done) < maxRepeats)
}

// daemon is one in-process hiperbotd: a journaling store behind
// server.New, served on a loopback httptest server.
type daemon struct {
	dir   string
	store *server.Store
	http  *httptest.Server
}

// startDaemon opens a fresh store under dir and serves it. wrap, when
// non-nil, wraps the server's handler (the traced pass's spans).
func startDaemon(w *workload, dir string, wrap func(http.Handler) http.Handler) (*daemon, error) {
	dir = w.storeDir(dir)
	if err := emptyDir(dir); err != nil {
		return nil, err
	}
	st, err := server.OpenStoreWithConfig(dir, w.store)
	if err != nil {
		return nil, err
	}
	var h http.Handler = server.New(st, nil)
	if wrap != nil {
		h = wrap(h)
	}
	return &daemon{dir: dir, store: st, http: httptest.NewServer(h)}, nil
}

// stop shuts the HTTP side down, closes the store and empties the
// journal directory.
func (d *daemon) stop() error {
	d.http.Close()
	err := d.store.Close()
	if rerr := emptyDir(d.dir); err == nil {
		err = rerr
	}
	return err
}

// emptyDir removes everything inside dir, creating dir if it is
// missing; dir == "" (an in-memory store) is left alone.
func emptyDir(dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// newClient returns a client with one keep-alive connection and no
// retries, so every call is exactly one HTTP round trip. rt, when
// non-nil, wraps the transport.
func newClient(base string, rt func(http.RoundTripper) http.RoundTripper) (*client.Client, *http.Transport, error) {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: time.Minute}
	var t http.RoundTripper = tr
	if rt != nil {
		t = rt(tr)
	}
	c, err := client.New(base, client.WithHTTPClient(&http.Client{Transport: t}), client.WithRetries(0))
	return c, tr, err
}

// campaign is one session driven to its budget by its worker.
type campaign struct {
	id         string
	slot, gen  int
	seed       uint64
	evals      int
	best       float64
	seen       map[string]bool
	suggestion []string // keys in suggestion order (gen 0 only)
}

func newCampaign(w *workload, worker, slot, gen int, seed uint64) *campaign {
	return &campaign{
		id: campaignID(worker, slot, gen), slot: slot, gen: gen,
		seed: campaignSeed(seed, worker, slot, gen),
		best: math.Inf(1), seen: make(map[string]bool, w.budget),
	}
}

// runStats is what the untraced run measures.
type runStats struct {
	setupS []float64
	// evals and elapsed cover the whole timed phase, until the last
	// worker stopped; the per-evaluation runtime ratios use them.
	evals   int64
	elapsed time.Duration
	// The end-to-end figures cover the timed phase until the first
	// worker stopped: after that the other worker finishes its window
	// alone, on a half-idle machine, for a time that varies run to run.
	measured         time.Duration
	measuredEvals    int64
	suggest, observe latency
	attempted        int64
	failed           int64
	heapMB           float64
	restartS         []float64
	cpuMs            float64 // process user+system CPU in the timed phase
	allocBytes       uint64
	numGC            uint32
	gen0Best         []float64           // best value of every generation-0 campaign, by worker then slot
	gen0Seq          map[string][]string // generation-0 suggestion sequences by campaign id
	gen0Evals        int64
	gen0Elapsed      time.Duration // until the last worker finished generation 0
}

// runUntraced runs set-up (repeated), the timed phase and the restart
// (repeated).
func runUntraced(w *workload, seed uint64, seconds float64, dir string) (*runStats, error) {
	rs := &runStats{gen0Seq: make(map[string][]string)}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	var d *daemon
	var clients []*client.Client
	var transports []*http.Transport
	for w.repeatMore(rs.setupS) {
		if d != nil {
			for _, tr := range transports {
				tr.CloseIdleConnections()
			}
			if err := d.stop(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		d, clients, transports, err = setup(w, seed, dir)
		if err != nil {
			return nil, err
		}
		rs.setupS = append(rs.setupS, time.Since(t0).Seconds())
	}
	defer func() {
		for _, tr := range transports {
			tr.CloseIdleConnections()
		}
	}()

	var cpu0 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &cpu0) // cannot fail for RUSAGE_SELF
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))

	outs := make([]workerOut, workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			if err := runWorker(w, seed, wi, clients[wi], start, deadline, &stop, &outs[wi]); err != nil {
				outs[wi].failed++
				outs[wi].err = err
				stop.Store(true)
			}
		}(wi)
	}
	wg.Wait()
	rs.elapsed = time.Since(start)
	var cpu1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &cpu1)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	rs.cpuMs = ms(rusageCPU(cpu1) - rusageCPU(cpu0))
	rs.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	rs.numGC = m1.NumGC - m0.NumGC

	acked := make(map[string]int)
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		rs.evals += o.evals
		rs.attempted += o.attempted
		rs.failed += o.failed
		rs.gen0Best = append(rs.gen0Best, o.gen0Best...)
		for id, seq := range o.gen0Seq {
			rs.gen0Seq[id] = seq
		}
		rs.gen0Evals += o.gen0Evals
		rs.gen0Elapsed = max(rs.gen0Elapsed, o.gen0Done)
		for _, c := range o.open {
			acked[c.id] = c.evals
		}
	}
	rs.measured = slices.MinFunc(outs, func(a, b workerOut) int { return cmp.Compare(a.stopped, b.stopped) }).stopped
	var suggestMs, observeMs []float64
	for _, o := range outs {
		for _, st := range o.steps {
			if st.end <= rs.measured {
				rs.measuredEvals += int64(st.n)
				suggestMs = append(suggestMs, st.suggestMs)
				observeMs = append(observeMs, st.observeMs)
			}
		}
	}
	rs.suggest, rs.observe = latencyOf(suggestMs), latencyOf(observeMs)
	// The per-step samples grow with throughput: drop them before the
	// heap is read, so that heap_mb counts only the daemon's state.
	outs, suggestMs, observeMs = nil, nil, nil

	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	rs.heapMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)

	for _, tr := range transports {
		tr.CloseIdleConnections()
	}
	if !w.durable {
		return rs, d.stop() // an in-memory daemon has no restart
	}
	d.http.Close()
	st := d.store
	for w.repeatMore(rs.restartS) {
		runtime.GC()
		t0 := time.Now()
		if err := st.Close(); err != nil {
			return nil, fmt.Errorf("restart: close: %w", err)
		}
		var err error
		st, err = server.OpenStoreWithConfig(d.dir, w.store)
		if err != nil {
			return nil, fmt.Errorf("restart: open: %w", err)
		}
		infos := st.Infos()
		rs.restartS = append(rs.restartS, time.Since(t0).Seconds())
		if err := checkResumed(infos, acked); err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return rs, emptyDir(d.dir)
}

// latency summarizes the client-side latencies of one call kind.
type latency struct {
	p50, p90 float64 // ms
	n        int     // samples
}

func latencyOf(msSamples []float64) latency {
	return latency{p50: quantile(msSamples, 0.5), p90: quantile(msSamples, 0.9), n: len(msSamples)}
}

// workerOut is what one worker of the timed phase measured.
type workerOut struct {
	steps             []stepRecord
	stopped           time.Duration // since the start of the timed phase
	evals             int64
	attempted, failed int64
	gen0Best          []float64
	gen0Seq           map[string][]string
	gen0Evals         int64
	gen0Done          time.Duration
	open              []*campaign // campaigns left on the daemon
	err               error
}

// stepRecord is one completed suggest+observe step of the timed phase.
type stepRecord struct {
	end                  time.Duration // since the start of the timed phase
	n                    int           // evaluations acknowledged
	suggestMs, observeMs float64
}

// runWorker is one closed-loop client of the timed phase. It drives
// its campaigns a window at a time, stepping each campaign of the
// window in turn until all reach their budget; while time remains it
// then retires them and creates the next generation in their place.
// It stops at the first window end after time is up at which all its
// generation-0 campaigns are complete, leaving its current campaigns
// open on the daemon.
func runWorker(w *workload, seed uint64, wi int, cl *client.Client, start, deadline time.Time, stop *atomic.Bool, o *workerOut) error {
	ctx := context.Background()
	slots := gen0(w, seed)[wi]
	defer func() { o.open, o.stopped = slots, time.Since(start) }()
	gen0Left := w.perWorker
	o.gen0Best = make([]float64, w.perWorker)
	o.gen0Seq = make(map[string][]string)
	for {
		for lo := 0; lo < len(slots); lo += w.window {
			win := slots[lo:min(lo+w.window, len(slots))]
			for incomplete(w, win) {
				for _, c := range win {
					if stop.Load() {
						return nil
					}
					if c.evals == w.budget {
						continue
					}
					o.attempted += 2
					n, tm, err := stepHTTP(ctx, w, cl, c, nil)
					if err != nil {
						return err
					}
					o.steps = append(o.steps, stepRecord{
						end: tm.observeEnd.Sub(start), n: n,
						suggestMs: ms(tm.suggestEnd.Sub(tm.suggest)), observeMs: ms(tm.observeEnd.Sub(tm.observe)),
					})
					o.evals += int64(n)
					if c.gen == 0 {
						o.gen0Evals += int64(n)
						if c.evals == w.budget {
							o.gen0Best[c.slot] = c.best
							o.gen0Seq[c.id] = c.suggestion
							if gen0Left--; gen0Left == 0 {
								o.gen0Done = time.Since(start)
							}
						}
					}
				}
			}
			// Time is up: keep the completed campaigns open, and stop once
			// generation 0 is complete. Stopping only here, between
			// windows, makes the daemon's final state (heap, restart work)
			// the same on every run.
			if !time.Now().Before(deadline) {
				if gen0Left == 0 {
					return nil
				}
				continue
			}
			for i, c := range win {
				o.attempted += 2
				if err := cl.DeleteSession(ctx, c.id); err != nil {
					return fmt.Errorf("delete %s: %w", c.id, err)
				}
				next := newCampaign(w, wi, c.slot, c.gen+1, seed)
				if _, err := cl.CreateSession(ctx, next.id, w.spaceJSON, w.sessionOptions(next.seed)); err != nil {
					return fmt.Errorf("create %s: %w", next.id, err)
				}
				win[i] = next
			}
		}
	}
}

// incomplete reports whether any campaign of cs is short of budget.
func incomplete(w *workload, cs []*campaign) bool {
	return slices.ContainsFunc(cs, func(c *campaign) bool { return c.evals < w.budget })
}

// checkResumed is the restart gate: every session open before the
// restart is listed after it, with exactly the evaluations that were
// acknowledged before it.
func checkResumed(infos []httpapi.SessionInfo, acked map[string]int) error {
	if len(infos) != len(acked) {
		return fmt.Errorf("restart: %d sessions listed, %d were open", len(infos), len(acked))
	}
	for _, in := range infos {
		n, ok := acked[in.ID]
		if !ok {
			return fmt.Errorf("restart: unexpected session %s", in.ID)
		}
		if in.Evaluations != n {
			return fmt.Errorf("restart: session %s resumed with %d evaluations, %d were acknowledged", in.ID, in.Evaluations, n)
		}
	}
	return nil
}

// setup starts a daemon and creates every generation-0 campaign, each
// worker creating its own sessions over its own connection.
func setup(w *workload, seed uint64, dir string) (*daemon, []*client.Client, []*http.Transport, error) {
	d, err := startDaemon(w, dir, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	clients := make([]*client.Client, workers)
	transports := make([]*http.Transport, workers)
	for wi := range clients {
		clients[wi], transports[wi], err = newClient(d.http.URL, nil)
		if err != nil {
			d.stop()
			return nil, nil, nil, err
		}
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for _, c := range gen0(w, seed)[wi] {
				if _, err := clients[wi].CreateSession(context.Background(), c.id, w.spaceJSON, w.sessionOptions(c.seed)); err != nil {
					errs[wi] = fmt.Errorf("create %s: %w", c.id, err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.stop()
			return nil, nil, nil, err
		}
	}
	return d, clients, transports, nil
}

// stepTimes are the client-side bounds of a step's two calls.
type stepTimes struct{ suggest, suggestEnd, observe, observeEnd time.Time }

// stepHTTP runs one suggest+observe round trip for c and applies the
// per-step correctness gates. beforeObserve, when non-nil, runs between
// the two calls. It returns the evaluations acknowledged.
func stepHTTP(ctx context.Context, w *workload, cl *client.Client, c *campaign, beforeObserve func()) (int, stepTimes, error) {
	var tm stepTimes
	k := min(w.batch, w.budget-c.evals)
	tm.suggest = time.Now()
	resp, err := cl.Suggest(ctx, c.id, k, lease)
	tm.suggestEnd = time.Now()
	if err != nil {
		return 0, tm, fmt.Errorf("suggest %s: %w", c.id, err)
	}
	results := make([]client.Result, len(resp.Candidates))
	cfgs := make([]space.Config, len(resp.Candidates))
	for i, labels := range resp.Candidates {
		cfg, err := w.space.FromLabels(labels)
		if err != nil {
			return 0, tm, fmt.Errorf("suggest %s: %w", c.id, err)
		}
		cfgs[i] = cfg
		results[i] = client.Result{Config: labels, Value: w.objective(cfg)}
	}
	if err := c.record(w, cfgs, len(resp.Candidates), k); err != nil {
		return 0, tm, err
	}
	if beforeObserve != nil {
		beforeObserve()
	}
	tm.observe = time.Now()
	ack, err := cl.Observe(ctx, c.id, results)
	tm.observeEnd = time.Now()
	if err != nil {
		return 0, tm, fmt.Errorf("observe %s: %w", c.id, err)
	}
	c.evals += len(results)
	if ack.Added != len(results) || ack.Evaluations != c.evals {
		return 0, tm, fmt.Errorf("observe %s: %d added, %d evaluations; want %d, %d", c.id, ack.Added, ack.Evaluations, len(results), c.evals)
	}
	if ack.Best == nil || ack.Best.Value != c.best {
		return 0, tm, fmt.Errorf("observe %s: server best %v, client best %v", c.id, ack.Best, c.best)
	}
	return len(results), tm, nil
}

// record folds one suggestion batch into the campaign: it applies the
// duplicate and short-batch gates, tracks the best value and, for
// generation 0, the suggestion sequence the traced passes must repeat.
func (c *campaign) record(w *workload, cfgs []space.Config, got, want int) error {
	if got != want {
		return fmt.Errorf("suggest %s: %d candidates, want %d (session short of its budget)", c.id, got, want)
	}
	for _, cfg := range cfgs {
		key := w.space.Key(cfg)
		if c.seen[key] {
			return fmt.Errorf("suggest %s: duplicate suggestion %s", c.id, key)
		}
		c.seen[key] = true
		c.best = min(c.best, w.objective(cfg))
		if c.gen == 0 {
			c.suggestion = append(c.suggestion, key)
		}
	}
	return nil
}

func rusageCPU(r syscall.Rusage) time.Duration {
	return time.Duration(r.Utime.Nano() + r.Stime.Nano())
}
