package scenario

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// Worker sentinels for the shard tests: the shard executor re-executes
// this test binary with one of these as its sole argument. TestMain
// intercepts them before the testing framework parses flags.
const (
	workerSentinel      = "-run-as-scenario-worker"
	workerExitSentinel  = "-run-as-scenario-worker-exit"
	workerNoisySentinel = "-run-as-scenario-worker-noisy"
)

func TestMain(m *testing.M) {
	// Registered up front so parent and worker processes share them.
	Register(shardableSpec())
	RegisterBuilder("test-param", paramSpec)
	for _, a := range os.Args[1:] {
		switch a {
		case workerSentinel:
			if err := ServeWorker(os.Stdin, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "worker:", err)
				os.Exit(1)
			}
			os.Exit(0)
		case workerExitSentinel: // simulates a worker that dies immediately
			os.Exit(0)
		case workerNoisySentinel: // a worker that writes diagnostics to stderr
			fmt.Fprintln(os.Stderr, "noisy diagnostic line")
			if err := ServeWorker(os.Stdin, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "worker:", err)
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// shardableSpec is a registered deterministic spec cheap enough to fan
// across subprocesses in tests. It exercises the full float path,
// including values JSON cannot carry (±Inf, NaN at seed 13).
func shardableSpec() Spec {
	return Spec{
		Name: "test-shardable", Desc: "registered spec for shard tests",
		Tags: []string{"synthetic"},
		Run: func(seed int64) Result {
			v := map[string]float64{
				"seed":  float64(seed),
				"root":  math.Sqrt(float64(seed)),
				"third": float64(seed) / 3,
				"inf":   math.Inf(1),
			}
			if seed == 13 {
				v["nan"] = math.NaN()
			}
			return Result{
				Name:   "test-shardable",
				Table:  fmt.Sprintf("shardable seed=%d\n±µ┌─┐", seed),
				Values: v,
			}
		},
	}
}

// paramSpec is the builder registered as "test-param", a parameterised
// spec for the worker tests: params "k=N", optionally followed by
// " sleep-ms=M", build a spec whose value v is seed × N and whose seeds
// each take M ms. Seed 99 panics. Anything else is rejected.
func paramSpec(params string) (Spec, error) {
	kStr, msStr, slow := strings.Cut(params, " sleep-ms=")
	k, err := strconv.Atoi(strings.TrimPrefix(kStr, "k="))
	if err != nil || !strings.HasPrefix(kStr, "k=") {
		return Spec{}, fmt.Errorf("want k=N, got %q", kStr)
	}
	var sleep time.Duration
	if slow {
		ms, err := strconv.Atoi(msStr)
		if err != nil {
			return Spec{}, fmt.Errorf("want sleep-ms=M, got %q", msStr)
		}
		sleep = time.Duration(ms) * time.Millisecond
	}
	return Spec{Name: "test-param", Desc: "built from " + params, Params: params, Run: func(seed int64) Result {
		if seed == 99 {
			panic("boom")
		}
		time.Sleep(sleep)
		return Result{Name: "test-param", Table: params, Values: map[string]float64{
			"v": float64(seed * int64(k)), "root": math.Sqrt(float64(seed)) * float64(k),
		}}
	}}, nil
}

// mustRun fails the test on a backend error — most tests exercise the
// aggregate, not the error path.
func mustRun(t *testing.T, r *Runner, specs []Spec, seeds []int64) []AggResult {
	t.Helper()
	aggs, err := r.Run(specs, seeds)
	if err != nil {
		t.Fatal(err)
	}
	return aggs
}

// syntheticSpec builds a cheap deterministic spec whose metrics are simple
// functions of the seed, so aggregation is verifiable in closed form.
func syntheticSpec(name string, calls *atomic.Int64) Spec {
	return Spec{
		Name: name,
		Desc: "synthetic " + name,
		Tags: []string{"synthetic"},
		Run: func(seed int64) Result {
			if calls != nil {
				calls.Add(1)
			}
			return Result{
				Name:  name,
				Table: fmt.Sprintf("%s table seed=%d", name, seed),
				Values: map[string]float64{
					"seed":   float64(seed),
					"square": float64(seed * seed),
				},
			}
		},
	}
}

func TestRegisterRejectsBadSpecs(t *testing.T) {
	mustPanic := func(name string, s Spec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(s)
	}
	mustPanic("empty name", Spec{Run: func(int64) Result { return Result{} }})
	mustPanic("nil run", Spec{Name: "test-nil-run"})
	mustPanic("deprecated tuning", Spec{
		Name:   "test-tuning",
		Run:    func(int64) Result { return Result{} },
		Tuning: &sim.Tuning{},
	})

	Register(syntheticSpec("test-dup", nil))
	mustPanic("duplicate", syntheticSpec("test-dup", nil))
	if _, ok := Lookup("test-dup"); !ok {
		t.Error("registered spec not found")
	}
}

func TestMatchSelection(t *testing.T) {
	Register(syntheticSpec("test-match-a", nil))
	Register(syntheticSpec("test-match-b", nil))

	got, err := Match("test-match-[ab]", nil, nil)
	if err != nil || len(got) != 2 {
		t.Fatalf("regex match: got %d specs, err %v", len(got), err)
	}
	// The pattern is anchored: a bare prefix must not match.
	got, err = Match("test-match", nil, nil)
	if err != nil || len(got) != 0 {
		t.Errorf("unanchored prefix matched %d specs", len(got))
	}
	got, err = Match("", []string{"synthetic"}, []string{"test-match-a"})
	if err != nil || len(got) != 1 || got[0].Name != "test-match-a" {
		t.Errorf("tag+name match: got %v, err %v", got, err)
	}
	if _, err = Match("", nil, []string{"test-no-such"}); err == nil {
		t.Error("unknown exact name should be an error")
	}
	if _, err = Match("(", nil, nil); err == nil {
		t.Error("invalid regexp should be an error")
	}
}

func TestRunnerAggregatesAcrossSeeds(t *testing.T) {
	var calls atomic.Int64
	spec := syntheticSpec("test-agg", &calls)
	seeds := []int64{1, 2, 3, 4, 5}
	r := &Runner{Parallel: 2, KeepPerSeed: true}
	aggs := mustRun(t, r, []Spec{spec}, seeds)
	if len(aggs) != 1 {
		t.Fatalf("got %d aggregates", len(aggs))
	}
	a := aggs[0]
	if calls.Load() != int64(len(seeds)) {
		t.Errorf("run called %d times, want %d", calls.Load(), len(seeds))
	}
	if len(a.PerSeed) != len(seeds) {
		t.Fatalf("PerSeed has %d entries", len(a.PerSeed))
	}
	for i, res := range a.PerSeed {
		if res.Values["seed"] != float64(seeds[i]) {
			t.Errorf("PerSeed[%d] out of order: %v", i, res.Values)
		}
	}
	if len(a.Metrics) != 2 || a.Metrics[0].Name != "seed" || a.Metrics[1].Name != "square" {
		t.Fatalf("metrics not sorted by name: %+v", a.Metrics)
	}
	seedM := a.Metrics[0]
	if seedM.Mean != 3 || seedM.Min != 1 || seedM.Max != 5 || seedM.N != 5 {
		t.Errorf("seed metric wrong: %+v", seedM)
	}
	// mean(1,2,3,4,5)=3, sd=sqrt(2.5), t(4)=2.776 → half ≈ 1.963
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(seedM.CI95-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", seedM.CI95, want)
	}
}

func TestRunnerDeterministicAcrossParallelism(t *testing.T) {
	specs := []Spec{syntheticSpec("test-det-a", nil), syntheticSpec("test-det-b", nil)}
	seeds := Seeds(10, 8)
	var base []AggResult
	for _, parallel := range []int{1, 2, 8, 0 /* clamps to 1 */} {
		r := &Runner{Parallel: parallel}
		got := mustRun(t, r, specs, seeds)
		if base == nil {
			base = got
			continue
		}
		if !aggEqual(base, got) {
			t.Errorf("parallel=%d changed aggregated results", parallel)
		}
	}
	var tables []string
	for _, a := range base {
		tables = append(tables, a.Table())
	}
	r := &Runner{Parallel: 8}
	for i, a := range mustRun(t, r, specs, seeds) {
		if a.Table() != tables[i] {
			t.Errorf("rendered table for %s not byte-identical across runs", a.Spec.Name)
		}
	}
}

// aggEqual compares aggregates including every per-seed result, demanding
// bit-identical floats: determinism, not approximation.
func aggEqual(a, b []AggResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Spec.Name != b[i].Spec.Name ||
			!reflect.DeepEqual(a[i].Seeds, b[i].Seeds) ||
			!reflect.DeepEqual(a[i].PerSeed, b[i].PerSeed) ||
			!reflect.DeepEqual(a[i].Metrics, b[i].Metrics) {
			return false
		}
	}
	return true
}

// TestRunnerStreamsByDefault pins the streaming contract: without
// KeepPerSeed the Runner folds results into accumulators and retains no
// per-seed Results, and the aggregate it reports is bit-identical to the
// retaining mode's.
func TestRunnerStreamsByDefault(t *testing.T) {
	spec := syntheticSpec("test-stream", nil)
	seeds := Seeds(1, 16)
	lean := mustRun(t, &Runner{Parallel: 4}, []Spec{spec}, seeds)[0]
	if lean.PerSeed != nil {
		t.Errorf("streaming Runner retained %d per-seed results", len(lean.PerSeed))
	}
	full := mustRun(t, &Runner{Parallel: 4, KeepPerSeed: true}, []Spec{spec}, seeds)[0]
	if len(full.PerSeed) != len(seeds) {
		t.Errorf("KeepPerSeed retained %d results, want %d", len(full.PerSeed), len(seeds))
	}
	if !reflect.DeepEqual(lean.Metrics, full.Metrics) {
		t.Errorf("streaming changed the aggregate:\n%+v\n%+v", lean.Metrics, full.Metrics)
	}
}

func TestSeeds(t *testing.T) {
	if got := Seeds(5, 3); !reflect.DeepEqual(got, []int64{5, 6, 7}) {
		t.Errorf("Seeds(5,3) = %v", got)
	}
	if got := Seeds(9, 0); !reflect.DeepEqual(got, []int64{9}) {
		t.Errorf("Seeds(9,0) = %v, want one seed", got)
	}
}

func TestMetricUnionAcrossSeeds(t *testing.T) {
	// An experiment may emit a metric only for some seeds; the aggregate
	// must carry the union with per-metric sample counts.
	spec := Spec{
		Name: "test-union", Desc: "union", Run: func(seed int64) Result {
			v := map[string]float64{"always": float64(seed)}
			if seed%2 == 0 {
				v["even-only"] = 1
			}
			return Result{Name: "test-union", Values: v}
		},
	}
	a := mustRun(t, &Runner{Parallel: 3}, []Spec{spec}, []int64{1, 2, 3, 4})[0]
	if len(a.Metrics) != 2 {
		t.Fatalf("want 2 metrics, got %+v", a.Metrics)
	}
	if a.Metrics[0].Name != "always" || a.Metrics[0].N != 4 {
		t.Errorf("always metric: %+v", a.Metrics[0])
	}
	if a.Metrics[1].Name != "even-only" || a.Metrics[1].N != 2 {
		t.Errorf("even-only metric: %+v", a.Metrics[1])
	}
}
