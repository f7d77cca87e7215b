package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/space"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := quantile(xs, tc.q); !near(got, tc.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Errorf("quantile of no samples should be NaN")
	}
}

// The expected cut points are what Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5}, // exclusive method extrapolates
		{[]float64{5, 1, 3}, 1, 3, 5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSelfTimesNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 25}, // grandchild: a's, not root's
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 50, 2: 10, 3: 30, 4: 30, 5: 10, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestRegretMeanOnHandBuiltHistory(t *testing.T) {
	w, err := newWorkload("small-grid-fleet", false)
	if err != nil {
		t.Fatal(err)
	}
	// The grid objective's optimum puts p0..p2 at levels 1, 4, 7.
	if w.bestKnown != 1 || gridObjective(space.Config{1, 4, 7}) != 1 {
		t.Fatalf("best known %v, want 1", w.bestKnown)
	}
	a := newCampaign(w, 0, 0, 0, 1)
	b := newCampaign(w, 0, 1, 0, 1)
	// a finds 2 (one level off on p0); b finds the optimum on its second try.
	if err := a.record(w, []space.Config{{0, 4, 7}, {0, 0, 0}}, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.record(w, []space.Config{{7, 7, 7}, {1, 4, 7}}, 2, 2); err != nil {
		t.Fatal(err)
	}
	if a.best != 2 || b.best != 1 {
		t.Fatalf("best values %v, %v; want 2, 1", a.best, b.best)
	}
	if got := regretMean([]float64{a.best, b.best}, w.bestKnown); !near(got, 0.5) {
		t.Errorf("regret_mean = %v, want 0.5", got)
	}
	if err := a.record(w, []space.Config{{1, 1, 1}, {0, 4, 7}}, 2, 2); err == nil {
		t.Errorf("a repeated suggestion passed the duplicate gate")
	}
	if err := b.record(w, []space.Config{{2, 2, 2}}, 1, 2); err == nil {
		t.Errorf("a short batch passed the budget gate")
	}
}

// TestSmokeAllWorkloads runs every workload at its tiny size, untraced
// and traced, so every correctness gate and traced pass executes. Each
// run must print exactly the metrics BENCHMARK.json declares, and two
// traced runs of one seed must agree on regret_mean.
func TestSmokeAllWorkloads(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	checkMetrics := func(t *testing.T, res *result, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(res.Metrics) != len(want) {
			t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("metric %s (%s): got %+v", m.Name, m.Unit, got)
			}
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			plain, err := runWorkload(out, name, 3, 0.05, false, true)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, plain, spec.EndToEnd)
			for k, m := range plain.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
				}
			}
			traced, err := runWorkload(out, name, 3, 0.05, true, true)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, traced, spec.PerLayer)
			checkTraceFile(t, filepath.Join(out, "trace-"+name+"-seed3.json"))
			again, err := runWorkload(out, name, 3, 0.05, true, true)
			if err != nil {
				t.Fatal(err)
			}
			if r1, r2 := traced.Metrics["regret_mean"].Value, again.Metrics["regret_mean"].Value; r1 != r2 {
				t.Errorf("regret_mean differs between two runs of one seed: %v, %v", r1, r2)
			}
		})
	}
}

// checkTraceFile checks that the spans of all traced depths form one
// forest: every id is unique and every parent is a span of the file.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("%s: span id %d used twice", path, s.ID)
		}
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("%s: span %d (%s) has no parent %d", path, s.ID, s.Name, s.Parent)
		}
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
}
