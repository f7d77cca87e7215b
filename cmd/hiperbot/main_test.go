package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/httpapi"
)

// parseSessionFlags runs argv through the flag binding main uses.
func parseSessionFlags(t *testing.T, argv ...string) httpapi.SessionOptions {
	t.Helper()
	opts := defaultOptions
	fs := flag.NewFlagSet("hiperbot", flag.ContinueOnError)
	httpapi.BindFlags(fs, &opts, sessionFlags...)
	if err := fs.Parse(argv); err != nil {
		t.Fatal(err)
	}
	return opts
}

// TestSessionFlags pins the options each argv yields: the values the
// hand-written flag parsing produced before the flags were bound
// through httpapi.BindFlags.
func TestSessionFlags(t *testing.T) {
	cases := []struct {
		argv []string
		want httpapi.SessionOptions
	}{
		{nil, httpapi.SessionOptions{InitialSamples: 20, Quantile: 0.20, Seed: 1}},
		{
			[]string{"-init", "8", "-quantile", "0.3", "-strategy", "grouped", "-pool-cap", "512",
				"-candidate-samples", "64", "-groups", "a, b;c", "-seed", "7", "-objectives", "p95_latency_ms, cost"},
			httpapi.SessionOptions{InitialSamples: 8, Quantile: 0.3, Strategy: "grouped", PoolCap: 512,
				CandidateSamples: 64, Groups: [][]string{{"a", "b"}, {"c"}}, Seed: 7,
				Objectives: []string{"p95_latency_ms", "cost"}},
		},
		{[]string{"-groups", "", "-objectives", ""}, httpapi.SessionOptions{InitialSamples: 20, Quantile: 0.20, Seed: 1}},
	}
	for _, tc := range cases {
		if got := parseSessionFlags(t, tc.argv...); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: got %+v, want %+v", tc.argv, got, tc.want)
		}
	}
}

// TestCSVRunThreadsGroups: the -csv path resolves -groups and
// -candidate-samples into the tuner options (it used to drop both, so
// -strategy grouped silently auto-grouped).
func TestCSVRunThreadsGroups(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.csv")
	csv := "a,b,c,time\nx,1,p,3.5\ny,2,q,1.25\nx,2,q,2\ny,1,p,4\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	tbl, err := loadTable(path, "")
	if err != nil {
		t.Fatal(err)
	}
	opts := parseSessionFlags(t, "-strategy", "grouped", "-groups", "a,b;c", "-candidate-samples", "64")
	got, _, err := tableOptions(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"a", "b"}, {"c"}}; !reflect.DeepEqual(got.Groups, want) {
		t.Errorf("core.Options.Groups = %v, want %v", got.Groups, want)
	}
	if got.CandidateSamples != 64 || got.Engine != "grouped" || len(got.Candidates) != tbl.Len() {
		t.Errorf("core.Options = %+v: want CandidateSamples 64, engine grouped, %d candidates", got, tbl.Len())
	}
	if _, _, err := tableOptions(tbl, parseSessionFlags(t, "-groups", "a;nope")); err == nil {
		t.Error("an unknown group name was accepted")
	}
}
