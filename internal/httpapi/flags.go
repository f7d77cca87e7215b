package httpapi

import (
	"flag"
	"strings"
)

// BindFlags registers the named session-option flags on fs, each
// writing one field of o. A flag's default is the field's value at
// bind time, so callers preset o with their defaults first. Every
// binary that takes session options binds them here, so a flag name
// means the same field, syntax and usage text everywhere. Naming a
// flag BindFlags does not know is a programming error and panics.
func BindFlags(fs *flag.FlagSet, o *SessionOptions, names ...string) {
	for _, name := range names {
		switch name {
		case "init":
			fs.IntVar(&o.InitialSamples, name, o.InitialSamples, "initial random samples before the model takes over (0 = 20)")
		case "seed":
			fs.Uint64Var(&o.Seed, name, o.Seed, "random seed")
		case "strategy":
			fs.StringVar(&o.Strategy, name, o.Strategy, "selection engine by registered name, e.g. ranking, proposal, sampling, random, grouped, motpe (empty = paper default)")
		case "pool-cap":
			fs.IntVar(&o.PoolCap, name, o.PoolCap, "sampled candidate pool size on spaces too large to enumerate (0 = default, <0 = disable large-space mode)")
		case "candidate-samples":
			fs.IntVar(&o.CandidateSamples, name, o.CandidateSamples, "good-density draws per step of the pool-free sampling engine (0 = default)")
		case "quantile":
			fs.Float64Var(&o.Quantile, name, o.Quantile, "good/bad split quantile α (0 = 0.20)")
		case "objectives":
			fs.Func(name, "comma-separated objective `specs` (e.g. p95_latency_ms,cost); two or more make the session multi-objective and default the strategy to motpe", func(s string) error {
				o.Objectives = splitComma(s)
				return nil
			})
		case "liar":
			fs.StringVar(&o.Liar, name, o.Liar, "constant-liar policy for leased candidates: min, mean, or max (empty = mean)")
		case "groups":
			fs.Func(name, "parameter `grouping` for the grouped engine, \"a,b;c,d\" (empty = auto-propose from importance)", func(s string) error {
				o.Groups = ParseGroups(s)
				return nil
			})
		default:
			panic("httpapi: BindFlags: no session flag named " + name)
		}
	}
}

// ParseGroups parses the -groups flag syntax "a,b;c,d" into name
// groups: semicolons separate groups, commas separate names, blanks
// are trimmed and empty entries dropped. Validation against a space
// happens when the session is resolved.
func ParseGroups(s string) [][]string {
	var out [][]string
	for _, group := range strings.Split(s, ";") {
		if names := splitComma(group); len(names) > 0 {
			out = append(out, names)
		}
	}
	return out
}

// splitComma splits a comma-separated list, trimming blanks and
// dropping empty entries; nil when nothing remains.
func splitComma(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
