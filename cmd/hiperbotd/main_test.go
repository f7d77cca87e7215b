package main

import (
	"flag"
	"reflect"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/httpapi"
)

// TestDefaultFlags pins the store defaults each argv yields: the
// values the hand-written flag parsing produced before the flags were
// bound through httpapi.BindFlags.
func TestDefaultFlags(t *testing.T) {
	cases := []struct {
		argv []string
		want httpapi.SessionOptions
	}{
		{nil, httpapi.SessionOptions{}},
		{
			[]string{"-pool-cap", "2048", "-objectives", "p95_latency_ms,cost", "-liar", "min"},
			httpapi.SessionOptions{PoolCap: 2048, Objectives: []string{"p95_latency_ms", "cost"}, Liar: "min"},
		},
	}
	for _, tc := range cases {
		var opts httpapi.SessionOptions
		fs := flag.NewFlagSet("hiperbotd", flag.ContinueOnError)
		httpapi.BindFlags(fs, &opts, defaultFlags...)
		if err := fs.Parse(tc.argv); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(opts, tc.want) {
			t.Errorf("%q: got %+v, want %+v", tc.argv, opts, tc.want)
		}
	}
}
