package server

import (
	"reflect"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/httpapi"
)

// TestResolveOptionsCoversEveryField sets each SessionOptions field on
// its own to a valid non-zero value and checks that ResolveOptions
// turns it into something the session uses: a wire option the resolve
// step drops would be accepted, journaled and silently ignored.
func TestResolveOptionsCoversEveryField(t *testing.T) {
	samples := map[string]any{
		"InitialSamples":     7,
		"Seed":               uint64(9),
		"Strategy":           "proposal",
		"ProposalCandidates": 33,
		"PoolCap":            64,
		"CandidateSamples":   32,
		"Quantile":           0.3,
		"Smoothing":          2.0,
		"Bandwidth":          0.5,
		"Bins":               9,
		"Objectives":         []string{"p95_latency_ms", "cost"},
		"Liar":               "max",
		"Groups":             [][]string{{"x", "y"}},
	}
	sp := testSpace()
	baseOpts, baseSet, err := ResolveOptions(sp, httpapi.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(httpapi.SessionOptions{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		v, ok := samples[f.Name]
		if !ok {
			t.Errorf("SessionOptions.%s has no sample value here: add one, and thread the field through ResolveOptions", f.Name)
			continue
		}
		var o httpapi.SessionOptions
		reflect.ValueOf(&o).Elem().Field(i).Set(reflect.ValueOf(v))
		opts, set, err := ResolveOptions(sp, o)
		if err != nil {
			t.Errorf("%s = %v: %v", f.Name, v, err)
			continue
		}
		if reflect.DeepEqual(opts, baseOpts) && reflect.DeepEqual(set, baseSet) {
			t.Errorf("SessionOptions.%s = %v resolves to the same options as the zero value", f.Name, v)
		}
	}
}

// TestOpenStoreRejectsBadDefaults: store-wide session defaults are
// validated when the store opens, not at the first create that falls
// back on them.
func TestOpenStoreRejectsBadDefaults(t *testing.T) {
	for _, cfg := range []StoreConfig{
		{DefaultObjectives: []string{"bogus"}},
		{DefaultLiar: "bogus"},
	} {
		if st, err := OpenStoreWithConfig(t.TempDir(), cfg); err == nil {
			st.Close()
			t.Errorf("OpenStoreWithConfig(%+v) succeeded, want an error", cfg)
		}
	}
}
