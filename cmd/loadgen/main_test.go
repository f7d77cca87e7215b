package main

import (
	"flag"
	"reflect"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/httpapi"
)

// TestSessionFlags pins the options each argv yields: the values the
// hand-written flag parsing produced before the flags were bound
// through httpapi.BindFlags.
func TestSessionFlags(t *testing.T) {
	cases := []struct {
		argv []string
		want httpapi.SessionOptions
	}{
		{nil, httpapi.SessionOptions{Seed: 1}},
		{
			[]string{"-seed", "11", "-strategy", "grouped", "-objectives", " p95_latency_ms ,cost,", "-liar", "min", "-groups", "p0,p1;p2"},
			httpapi.SessionOptions{Seed: 11, Strategy: "grouped", Objectives: []string{"p95_latency_ms", "cost"},
				Liar: "min", Groups: [][]string{{"p0", "p1"}, {"p2"}}},
		},
	}
	for _, tc := range cases {
		opts := defaultOptions
		fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
		httpapi.BindFlags(fs, &opts, sessionFlags...)
		if err := fs.Parse(tc.argv); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(opts, tc.want) {
			t.Errorf("%q: got %+v, want %+v", tc.argv, opts, tc.want)
		}
	}
}
