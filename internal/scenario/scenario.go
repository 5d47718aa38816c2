// Package scenario is the registry-driven experiment engine behind every
// frontend in this repository. Each experiment package registers its
// runnable scenarios as Specs (name, description, tags, and a seeded run
// function); cmd/figgen, cmd/macbench, cmd/hotspotsim and the benchmark
// harness all draw from the same registry, so an experiment is declared in
// exactly one place.
//
// Execution is layered: an Executor turns (spec, seeds) into per-seed
// Results — in-process on a bounded worker pool (Local), fanned across
// worker subprocesses (Shard), or memoized on disk keyed by a code-version
// digest (Cache) — and the Runner aggregates whatever an Executor emits
// into mean ± 95% confidence intervals. Every executor delivers results in
// seed order, so changing the backend or the parallelism changes only the
// wall clock, never a single output bit.
package scenario

import "repro/internal/sim"

// Result bundles an experiment's rendered table with machine-readable key
// figures. It is the canonical result type for the whole experiment layer;
// internal/exp aliases it so existing experiment functions register
// directly as Spec run functions. Results cross process boundaries through
// the codec in codec.go, which round-trips every field bit-exactly.
type Result struct {
	Name   string
	Table  string
	Values map[string]float64
}

// Spec describes one registered experiment: a stable name (the CLI
// identifier), a one-line description, classification tags used for
// filtering, and the seeded run function that produces its Result.
//
// Exactly one of Run and RunTuned must be set. RunTuned is for experiments
// that accept a kernel tuning: the registry leaves Tuning nil, so they run
// on sim.DefaultTuning, and tests set it to prove other tunings change
// nothing (sim.Tuning trades only constant factors, never event order).
// Execute threads it through.
//
// Params is an optional canonical description of any runtime parameters
// baked into the run closure (ad-hoc specs built from CLI flags set it;
// registry specs have their parameters in code and leave it empty). It is
// part of the result-cache key, so two invocations with different
// parameters never share cache entries.
type Spec struct {
	Name     string
	Desc     string
	Tags     []string
	Params   string
	Run      func(seed int64) Result
	RunTuned func(seed int64, tun sim.Tuning) Result
	Tuning   *sim.Tuning // kernel tuning passed to RunTuned; nil means sim.DefaultTuning
}

// Execute runs the spec on one seed. It is the single entry point every
// executor, benchmark and test uses, so the tuning override is applied
// uniformly no matter which backend runs the seed.
func (s Spec) Execute(seed int64) Result {
	if s.RunTuned != nil {
		tun := sim.DefaultTuning()
		if s.Tuning != nil {
			tun = *s.Tuning
		}
		return s.RunTuned(seed, tun)
	}
	return s.Run(seed)
}

// Runnable reports whether the spec carries a run function.
func (s Spec) Runnable() bool { return s.Run != nil || s.RunTuned != nil }

// HasTag reports whether the spec carries the given tag.
func (s Spec) HasTag(tag string) bool {
	for _, t := range s.Tags {
		if t == tag {
			return true
		}
	}
	return false
}
