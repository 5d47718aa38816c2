// Package scenario is the registry-driven experiment engine behind every
// frontend in this repository. Each experiment package registers its
// runnable scenarios as Specs (name, description, tags, and a seeded run
// function); cmd/figgen, cmd/macbench, cmd/hotspotsim and the benchmark
// harness all draw from the same registry, so an experiment is declared in
// exactly one place.
//
// Execution is layered: an Executor turns (spec, seeds) into per-seed
// Results — in-process on a bounded worker pool (Local), fanned across
// worker processes (Shard), or memoized on disk keyed by a code-version
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
// Params is empty for a registered spec. A parameterised spec (built from
// a frontend's flags) sets it to its parameters' canonical encoding: a
// shard worker rebuilds the spec from Name and Params with the builder
// registered under Name, and Params is part of the result-cache key, so
// two parameterisations never share cache entries.
type Spec struct {
	Name   string
	Desc   string
	Tags   []string
	Params string
	Run    func(seed int64) Result

	// Tuning is ignored, and Register rejects a spec that sets it.
	//
	// Deprecated: only bench/layers.go (tuningOf) still reads it. The next
	// benchmark change (ROADMAP.md, "Next benchmark change") drops that
	// read and deletes the field.
	Tuning *sim.Tuning
}

// Execute runs the spec on one seed. It is the single entry point every
// executor, benchmark and test uses.
func (s Spec) Execute(seed int64) Result { return s.Run(seed) }

// Runnable reports whether the spec carries a run function.
func (s Spec) Runnable() bool { return s.Run != nil }

// HasTag reports whether the spec carries the given tag.
func (s Spec) HasTag(tag string) bool {
	for _, t := range s.Tags {
		if t == tag {
			return true
		}
	}
	return false
}
