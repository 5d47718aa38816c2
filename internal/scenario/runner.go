package scenario

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/stats"
)

// Metric is one aggregated key figure: the across-seed mean of a Values
// entry with the half-width of its 95% confidence interval and the
// observed range.
type Metric struct {
	Name     string
	Mean     float64
	CI95     float64
	Min, Max float64
	N        int
}

// AggResult is the multi-seed outcome of one experiment: the across-seed
// aggregate of every metric, plus the per-seed results when the Runner was
// asked to keep them.
type AggResult struct {
	Spec    Spec
	Seeds   []int64
	PerSeed []Result // seed-ordered; nil unless Runner.KeepPerSeed is set
	Metrics []Metric // sorted by metric name
}

// Table renders the aggregate as a plain-text table in the same style as
// the single-seed experiment tables.
func (a AggResult) Table() string {
	t := stats.NewTable(
		fmt.Sprintf("%s — %s (%d seeds, mean ± 95%% CI)", a.Spec.Name, a.Spec.Desc, len(a.Seeds)),
		"metric", "mean", "±95% CI", "min", "max")
	for _, m := range a.Metrics {
		t.AddRow(m.Name, fmt.Sprintf("%.6g", m.Mean), fmt.Sprintf("%.3g", m.CI95),
			fmt.Sprintf("%.6g", m.Min), fmt.Sprintf("%.6g", m.Max))
	}
	return t.String()
}

// Runner drives an Executor over a (specs × seeds) job matrix and
// aggregates each experiment's metrics across seeds.
//
// Per-seed results are streamed into per-metric stats.Summary accumulators
// as the backend emits them — and every backend emits in seed order, so
// each metric's accumulator always folds seeds in order and the reported
// digits are bit-identical whatever the backend or pool size. Set
// KeepPerSeed to additionally retain the raw per-seed Results (the
// single-seed table/JSON frontends need the lone Result; aggregate-only
// callers should leave it off).
type Runner struct {
	Parallel    int
	KeepPerSeed bool
	Executor    Executor // nil means an in-process Local pool of size Parallel
}

// Seeds returns the canonical seed set used by the CLIs: n consecutive
// seeds starting at base.
func Seeds(base int64, n int) []int64 {
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// specAcc accumulates one experiment's seed-ordered result stream.
type specAcc struct {
	sums    map[string]*stats.Summary
	perSeed []Result // only when KeepPerSeed
}

// fold streams one seed's values into the per-metric accumulators. Each
// metric's Add sequence is ordered by seed (executors emit in seed order),
// which is exactly the fold order a sequential run uses — the Welford
// state, and therefore every reported digit, is bit-identical.
func (a *specAcc) fold(res Result) {
	for k, v := range res.Values {
		s := a.sums[k]
		if s == nil {
			s = &stats.Summary{}
			a.sums[k] = s
		}
		s.Add(v)
	}
}

// Run executes every spec with every seed on the configured backend and
// aggregates each experiment's metrics across seeds. The returned slice is
// ordered like specs. Specs fan out concurrently (one backend Run call
// each); the backend's shared capacity limit governs how much actually
// runs at once.
func (r *Runner) Run(specs []Spec, seeds []int64) ([]AggResult, error) {
	exec := r.Executor
	if exec == nil {
		exec = &Local{Parallel: r.Parallel}
	}

	accs := make([]specAcc, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for si := range specs {
		accs[si] = specAcc{sums: make(map[string]*stats.Summary)}
		if r.KeepPerSeed {
			accs[si].perSeed = make([]Result, len(seeds))
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			a := &accs[si]
			errs[si] = exec.Run(specs[si], seeds, func(ki int, res Result) {
				if a.perSeed != nil {
					a.perSeed[ki] = res
				}
				a.fold(res)
			})
		}(si)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario: %s: %w", specs[si].Name, err)
		}
	}

	out := make([]AggResult, len(specs))
	for si, spec := range specs {
		out[si] = AggResult{
			Spec:    spec,
			Seeds:   append([]int64(nil), seeds...),
			PerSeed: accs[si].perSeed,
			Metrics: metrics(accs[si].sums),
		}
	}
	return out, nil
}

// metrics flattens the per-metric accumulators into name-sorted summaries.
// The metric set is the union across seeds (an experiment may emit a metric
// only in some regimes).
func metrics(sums map[string]*stats.Summary) []Metric {
	names := make([]string, 0, len(sums))
	for k := range sums {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]Metric, 0, len(names))
	for _, name := range names {
		s := sums[name]
		out = append(out, Metric{
			Name: name,
			Mean: s.Mean(),
			CI95: s.CI95(),
			Min:  s.Min(),
			Max:  s.Max(),
			N:    int(s.N()),
		})
	}
	return out
}
