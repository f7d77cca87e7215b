// Command tunebench measures the tuning service end to end: an
// in-process hiperbotd (server.New over a journaling server.Store,
// served on loopback) driven through the public client by a closed
// loop of two workers, each owning a disjoint set of sessions. See
// README.md for the workloads, the metrics and what each layer metric
// should move.
//
//	bash tunebench/run.sh --workload small-grid-fleet --seed 1 --seconds 10 --trace 0
//	bash tunebench/run.sh --workload all --seed 1 --seconds 10 --trace 1
//	bash tunebench/run.sh --summarize
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the end-to-end metrics (--trace 0) or the
// per-layer metrics of the traced run (--trace 1). Any failed
// correctness gate exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is the seed a gain claim must also pass, besides the
// seeds it was developed on.
const heldOutSeed = 7919

// outDir holds everything a run leaves behind: journals while it runs,
// then traces and the results log. It is relative to the working
// directory, the root of the checkout.
const outDir = ".bench_build/tunebench"

func main() {
	var (
		name      = flag.String("workload", "", "workload to run, or all: "+strings.Join(workloadNames, ", "))
		seed      = flag.Uint64("seed", 1, "seed of every campaign of the run")
		seconds   = flag.Float64("seconds", 10, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1: after the untraced run, replay generation 0 traced at three depths and report per-layer metrics")
		summarize = flag.Bool("summarize", false, "print the median and quartiles of every metric across the runs logged so far, then exit")
	)
	flag.Parse()
	if *summarize {
		if err := summarizeResults(filepath.Join(outDir, "results.jsonl")); err != nil {
			fmt.Fprintln(os.Stderr, "tunebench:", err)
			os.Exit(1)
		}
		return
	}
	if *name == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "tunebench: need --workload, --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	total := result{Correct: true, Metrics: make(map[string]metric)}
	for _, n := range names {
		res, err := runWorkload(outDir, n, *seed, *seconds, *trace == 1, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tunebench: %s: %v\n", n, err)
			os.Exit(1)
		}
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(names) > 1 {
				k = n + "/" + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tunebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload runs one workload, logs it under out and returns its
// result line. Any error is a failed run: a correctness gate, or a
// request that failed.
func runWorkload(out, name string, seed uint64, seconds float64, traced, tiny bool) (*result, error) {
	w, err := newWorkload(name, tiny)
	if err != nil {
		return nil, err
	}
	// Every journaled daemon of every run uses this one directory,
	// emptied between uses.
	dir, err := filepath.Abs(filepath.Join(out, "journal"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer emptyDir(dir)
	host := hostFacts(dir, seed)
	rs, err := runUntraced(w, seed, seconds, dir)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: rs.attempted, Failed: rs.failed, Metrics: make(map[string]metric)}
	counts := map[string]int{}
	put := func(k string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no sample (a tiny run without a model phase)
		}
		res.Metrics[k] = metric{Value: v, Unit: unit}
	}
	var openMs float64 // restart time per session in the traced store pass (durable workloads)
	regret := regretMean(rs.gen0Best, w.bestKnown)
	errorRate := float64(rs.failed) / float64(rs.attempted)
	if !traced {
		put("evals_per_s", float64(rs.measuredEvals)/rs.measured.Seconds(), "1/s")
		put("suggest_p50_ms", rs.suggest.p50, "ms")
		put("suggest_p90_ms", rs.suggest.p90, "ms")
		put("observe_p50_ms", rs.observe.p50, "ms")
		put("observe_p90_ms", rs.observe.p90, "ms")
		put("setup_s", median(rs.setupS), "s")
		put("heap_mb", rs.heapMB, "MB")
		counts["suggest"] = rs.suggest.n
		counts["observe"] = rs.observe.n
		counts["setup"] = len(rs.setupS)
	} else {
		tr := newTracer()
		p1, err := tracePassHTTP(tr, w, seed, dir, rs.gen0Seq)
		if err != nil {
			return nil, err
		}
		p2, err := tracePassStore(tr, w, seed, dir, rs.gen0Seq)
		if err != nil {
			return nil, err
		}
		rehydrated := make(map[string][]int)
		for _, m := range p2.rehydrated {
			maps.Copy(rehydrated, m)
		}
		p3, err := tracePassCore(w, seed, rehydrated, rs.gen0Seq)
		if err != nil {
			return nil, err
		}
		for pass, best := range map[string][]float64{"trace http": p1.best, "trace store": p2.best, "trace core": p3.best} {
			if r := regretMean(best, w.bestKnown); r != regret {
				return nil, fmt.Errorf("%s: regret_mean %v, untraced run %v", pass, r, regret)
			}
		}
		evals := float64(w.sessions() * w.budget)
		kevals := evals / 1000
		put("client.suggest_self_ms", mean(p1.clientSuggestSelf), "ms")
		put("client.observe_self_ms", mean(p1.clientObsSelf), "ms")
		put("server.suggest_ms", mean(p1.serverSuggest), "ms")
		put("server.observe_ms", mean(p1.serverObserve), "ms")
		put("store.lookup_ms", mean(p2.lookup), "ms")
		put("store.lookup_p90_ms", quantile(p2.lookup, 0.9), "ms")
		put("store.release_ms", mean(p2.release), "ms")
		put("store.miss_ratio", float64(p2.stats.Rehydrations)/float64(p2.lookups), "ratio")
		put("store.rehydrations_per_keval", float64(p2.stats.Rehydrations)/kevals, "count")
		put("store.evictions_per_keval", float64(p2.stats.Evictions)/kevals, "count")
		put("store.compactions_per_keval", float64(p2.stats.Compactions)/kevals, "count")
		put("store.create_ms", mean(p2.createMs), "ms")
		put("session.suggest_ms", mean(p2.sessSuggest), "ms")
		put("session.observe_ms", mean(p2.sessObserve), "ms")
		put("journal.bytes_per_eval", float64(p2.journalBytes)/evals, "B")
		openMs = p2.openMsPerSession
		put("space.labels_us", mean(p2.labelsUs), "us")
		put("core.fit_ms", mean(p3.fit), "ms")
		put("core.ask_ms", mean(p3.ask), "ms")
		put("core.tell_ms", mean(p3.tell), "ms")
		put("core.ask_alloc_kb", mean(p3.askAllocKB), "KB")
		put("core.dup_ratio", float64(p3.dups)/float64(p3.suggested), "ratio")
		put("runtime.cpu_ms_per_eval", rs.cpuMs/float64(rs.evals), "ms")
		put("runtime.alloc_kb_per_eval", float64(rs.allocBytes)/1024/float64(rs.evals), "KB")
		put("runtime.gc_per_keval", float64(rs.numGC)/(float64(rs.evals)/1000), "count")
		put("runtime.heap_kb_per_session", rs.heapMB*1024/float64(w.sessions()), "KB")
		put("regret_mean", regret, "ratio")
		put("error_rate", errorRate, "ratio")
		gen0EvalsPerS := float64(rs.gen0Evals) / rs.gen0Elapsed.Seconds()
		put("trace.http_evals_per_s", p1.evalsPerS, "1/s")
		put("trace.overhead_ratio", 1-p1.evalsPerS/gen0EvalsPerS, "ratio")
		counts["client.suggest"] = len(p1.clientSuggestSelf)
		counts["client.observe"] = len(p1.clientObsSelf)
		counts["store.lookup"] = len(p2.lookup)
		counts["space.labels"] = len(p2.labelsUs)
		counts["core.fit"] = len(p3.fit)
		counts["core.ask"] = len(p3.ask)
		counts["core.tell"] = len(p3.tell)
		if err := writeJSON(filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", name, seed)), tr.all()); err != nil {
			return nil, err
		}
	}

	fmt.Printf("tunebench: workload %s (%s)\n", name, w.why)
	fmt.Printf("tunebench: host nproc=%d GOMAXPROCS=%d go=%s journal=%s fs=%s seed=%d held-out-seed=%d\n",
		host.NProc, host.GOMAXPROCS, host.GoVersion, host.JournalDir, host.JournalFS, seed, heldOutSeed)
	fmt.Printf("tunebench: %d sessions, batch %d, budget %d; %d evaluations in %.2fs (%d in the first %.2fs, while both workers ran); %d/%d requests failed; regret_mean %.6g; error_rate %.3g\n",
		w.sessions(), w.batch, w.budget, rs.evals, rs.elapsed.Seconds(), rs.measuredEvals, rs.measured.Seconds(), rs.failed, rs.attempted, regret, errorRate)
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		fmt.Printf("tunebench: %-30s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("tunebench: %d set-ups (s) %.4f\n", len(rs.setupS), rs.setupS)
	if w.durable {
		fmt.Printf("tunebench: restart_s %.6g s, the median of %d restarts (s) %.4f\n", median(rs.restartS), len(rs.restartS), rs.restartS)
		if traced {
			fmt.Printf("tunebench: store.open_ms_per_session %.6g ms, from the traced store pass's restart\n", openMs)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		fmt.Printf("tunebench: samples %-22s %d\n", k, counts[k])
	}
	rec := record{Workload: name, Trace: traced, Host: host, Samples: counts, SetupS: rs.setupS, RestartS: rs.restartS, Result: res, Time: time.Now().UTC().Format(time.RFC3339)}
	if err := appendJSONL(filepath.Join(out, "results.jsonl"), rec); err != nil {
		return nil, err
	}
	return res, nil
}

// host records the facts a result is only comparable under.
type host struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	JournalDir  string `json:"journal_dir"`
	JournalFS   string `json:"journal_fs"`
	Seed        uint64 `json:"seed"`
	HeldOutSeed uint64 `json:"held_out_seed"`
}

func hostFacts(journalDir string, seed uint64) host {
	return host{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		JournalDir:  journalDir,
		JournalFS:   fsType(journalDir),
		Seed:        seed,
		HeldOutSeed: heldOutSeed,
	}
}

// fsType names the filesystem holding dir, from statfs's magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// record is one line of the results log.
type record struct {
	Workload string         `json:"workload"`
	Trace    bool           `json:"trace"`
	Time     string         `json:"time"`
	Host     host           `json:"host"`
	Samples  map[string]int `json:"samples"`
	SetupS   []float64      `json:"setup_s"`
	RestartS []float64      `json:"restart_s,omitempty"` // durable workloads only
	Result   *result        `json:"result"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func appendJSONL(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarizeResults prints, per workload and metric, the median and
// quartiles across every logged run, and the spread (q3-q1)/median.
func summarizeResults(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	vals := make(map[key][]float64)
	units := make(map[key]string)
	var keys []key
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for m, v := range r.Result.Metrics {
			k := key{r.Workload, m}
			if _, ok := vals[k]; !ok {
				keys = append(keys, k)
			}
			vals[k] = append(vals[k], v.Value)
			units[k] = v.Unit
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].workload != keys[b].workload {
			return keys[a].workload < keys[b].workload
		}
		return keys[a].metric < keys[b].metric
	})
	fmt.Printf("%-20s %-30s %4s %12s %12s %12s %8s\n", "workload", "metric", "n", "q1", "median", "q3", "spread")
	for _, k := range keys {
		v := vals[k]
		q1, med, q3 := quartiles(v)
		fmt.Printf("%-20s %-30s %4d %12.6g %12.6g %12.6g %8.4f %s\n", k.workload, k.metric, len(v), q1, med, q3, (q3-q1)/med, units[k])
	}
	return nil
}
