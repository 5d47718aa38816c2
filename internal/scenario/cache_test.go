package scenario

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// countingExecutor wraps Local and counts how many seeds it computed.
type countingExecutor struct {
	Local
	computed []int64
}

func (c *countingExecutor) Run(spec Spec, seeds []int64, emit Emit) error {
	c.computed = append(c.computed, seeds...)
	return c.Local.Run(spec, seeds, emit)
}

// failExecutor always fails with its message: a warm cache that reaches
// it has missed.
type failExecutor string

func (f failExecutor) Run(Spec, []int64, Emit) error { return errors.New(string(f)) }

func cacheSpec() Spec {
	return Spec{
		Name: "test-cache", Desc: "cache spec", Params: "p=1",
		Run: func(seed int64) Result {
			return Result{
				Name:  "test-cache",
				Table: "cache table",
				Values: map[string]float64{
					"seed": float64(seed),
					"inv":  1 / float64(seed),
				},
			}
		},
	}
}

func TestCacheColdThenWarmBitIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := cacheSpec()
	seeds := Seeds(1, 6)

	inner := &countingExecutor{Local: Local{Parallel: 2}}
	cold := &Cache{Inner: inner, Dir: dir}
	coldAggs := mustRun(t, &Runner{KeepPerSeed: true, Executor: cold}, []Spec{spec}, seeds)
	if s := cold.Stats(); s.Hits != 0 || s.Misses != int64(len(seeds)) {
		t.Errorf("cold stats %+v, want 0 hits / %d misses", s, len(seeds))
	}
	if len(inner.computed) != len(seeds) {
		t.Errorf("inner computed %v, want all %d seeds", inner.computed, len(seeds))
	}

	// Warm run: the inner backend must never be reached, and the merged
	// aggregate must be bit-identical to the cold run's.
	warm := &Cache{Inner: failExecutor("cache missed on a warm run"), Dir: dir}
	warmAggs := mustRun(t, &Runner{KeepPerSeed: true, Executor: warm}, []Spec{spec}, seeds)
	if s := warm.Stats(); s.Hits != int64(len(seeds)) || s.Misses != 0 {
		t.Errorf("warm stats %+v, want %d hits / 0 misses", s, len(seeds))
	}
	if !reflect.DeepEqual(coldAggs[0].Metrics, warmAggs[0].Metrics) {
		t.Errorf("warm aggregate differs:\ncold %+v\nwarm %+v", coldAggs[0].Metrics, warmAggs[0].Metrics)
	}
	if !reflect.DeepEqual(coldAggs[0].PerSeed, warmAggs[0].PerSeed) {
		t.Errorf("warm per-seed results differ:\ncold %+v\nwarm %+v", coldAggs[0].PerSeed, warmAggs[0].PerSeed)
	}
}

// TestCachesShareOneDir is how a fleet fills one cache: Caches on one
// shared Dir run overlapping seed ranges at the same time, and a later
// Cache serves the union as hits, bit-identical to a Local run. Entries
// are renamed into place, so a concurrent writer never exposes a torn one.
func TestCachesShareOneDir(t *testing.T) {
	dir := t.TempDir()
	spec := cacheSpec()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, seeds := range [][]int64{Seeds(1, 40), Seeds(25, 40)} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Cache{Inner: &Local{Parallel: 2}, Dir: dir}
			_, errs[i] = (&Runner{Executor: c}).Run([]Spec{spec}, seeds)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	seeds := Seeds(1, 64)
	warm := &Cache{Inner: failExecutor("a shared-dir entry is missing"), Dir: dir}
	got := mustRun(t, &Runner{KeepPerSeed: true, Executor: warm}, []Spec{spec}, seeds)
	if s := warm.Stats(); s.Hits != int64(len(seeds)) || s.Misses != 0 || s.WriteErrs != 0 {
		t.Errorf("warm stats %+v, want %d hits / 0 misses", s, len(seeds))
	}
	want := mustRun(t, &Runner{Parallel: 2, KeepPerSeed: true}, []Spec{spec}, seeds)
	if !aggEqual(want, got) || !metricsEqualBits(want[0].Metrics, got[0].Metrics) {
		t.Errorf("shared-dir aggregate differs from Local:\nlocal %+v\ncache %+v", want[0].Metrics, got[0].Metrics)
	}
}

func TestCachePartialHitComputesOnlyMisses(t *testing.T) {
	dir := t.TempDir()
	spec := cacheSpec()
	first := &Cache{Inner: &Local{Parallel: 2}, Dir: dir}
	mustRun(t, &Runner{Executor: first}, []Spec{spec}, []int64{2, 4})

	inner := &countingExecutor{Local: Local{Parallel: 2}}
	second := &Cache{Inner: inner, Dir: dir}
	aggs := mustRun(t, &Runner{Executor: second}, []Spec{spec}, Seeds(1, 5))
	if !reflect.DeepEqual(inner.computed, []int64{1, 3, 5}) {
		t.Errorf("recomputed %v, want only the misses [1 3 5]", inner.computed)
	}
	if s := second.Stats(); s.Hits != 2 || s.Misses != 3 {
		t.Errorf("stats %+v, want 2 hits / 3 misses", s)
	}
	if m := aggs[0].Metrics[1]; m.Name != "seed" || m.Mean != 3 || m.N != 5 {
		t.Errorf("merged hit+miss aggregate wrong: %+v", aggs[0].Metrics)
	}
}

// TestCacheEmitsInSeedOrderAcrossHitsAndMisses pins the progressive
// emission contract on a hit/miss interleaving: hit, miss, hit, miss, hit.
func TestCacheEmitsInSeedOrderAcrossHitsAndMisses(t *testing.T) {
	dir := t.TempDir()
	spec := cacheSpec()
	warmup := &Cache{Inner: &Local{Parallel: 1}, Dir: dir}
	mustRun(t, &Runner{Executor: warmup}, []Spec{spec}, []int64{1, 3, 5})

	c := &Cache{Inner: &Local{Parallel: 2}, Dir: dir}
	var order []int
	if err := c.Run(spec, []int64{1, 2, 3, 4, 5}, func(ki int, res Result) {
		order = append(order, ki)
		if want := float64(ki + 1); res.Values["seed"] != want {
			t.Errorf("emit %d carried seed %v, want %v", ki, res.Values["seed"], want)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, ki := range order {
		if ki != i {
			t.Fatalf("emit order %v not seed order", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("emitted %d results, want 5", len(order))
	}
}

func TestCacheKeySeparatesParamsAndSpecs(t *testing.T) {
	dir := t.TempDir()
	a := cacheSpec()
	b := cacheSpec()
	b.Params = "p=2"
	c := &Cache{Inner: &Local{Parallel: 1}, Dir: dir}
	mustRun(t, &Runner{Executor: c}, []Spec{a}, []int64{1})
	mustRun(t, &Runner{Executor: c}, []Spec{b}, []int64{1})
	if s := c.Stats(); s.Hits != 0 || s.Misses != 2 {
		t.Errorf("different Params shared an entry: %+v", s)
	}
	// Same spec+params again: a hit, proving the miss above was key
	// separation rather than a broken store.
	mustRun(t, &Runner{Executor: c}, []Spec{a}, []int64{1})
	if s := c.Stats(); s.Hits != 1 {
		t.Errorf("identical spec did not hit: %+v", s)
	}
}

func TestCacheCorruptEntryIsAMiss(t *testing.T) {
	for _, tc := range []struct{ name, garbage string }{
		{"torn", "{torn"},
		// The pre-binary JSON entry format is not a Result encoding.
		{"json", `{"name":"test-cache","table":"t","values":[{"name":"seed","bits":"4008000000000000","human":"3"}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := cacheSpec()
			c := &Cache{Inner: &Local{Parallel: 1}, Dir: dir}
			mustRun(t, &Runner{Executor: c}, []Spec{spec}, []int64{3})

			// Overwrite every cache file with garbage.
			var files []string
			filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
				if err == nil && !info.IsDir() {
					files = append(files, path)
				}
				return nil
			})
			if len(files) != 1 {
				t.Fatalf("expected 1 cache file, found %v", files)
			}
			if err := os.WriteFile(files[0], []byte(tc.garbage), 0o644); err != nil {
				t.Fatal(err)
			}

			inner := &countingExecutor{Local: Local{Parallel: 1}}
			again := &Cache{Inner: inner, Dir: dir}
			aggs := mustRun(t, &Runner{Executor: again}, []Spec{spec}, []int64{3})
			if len(inner.computed) != 1 {
				t.Errorf("corrupt entry was not recomputed: %v", inner.computed)
			}
			if got := aggs[0].Metrics[1].Mean; got != 3 {
				t.Errorf("recomputed value %v, want 3", got)
			}
		})
	}
}

// TestCacheRoundTripsHostileFloats: a spec emitting NaN/Inf must cache and
// replay without bit damage (the codec test covers the encoding; this
// covers the file path).
func TestCacheRoundTripsHostileFloats(t *testing.T) {
	dir := t.TempDir()
	spec, _ := Lookup("test-shardable")
	seeds := []int64{13} // the NaN seed
	cold := &Cache{Inner: &Local{Parallel: 1}, Dir: dir}
	a := mustRun(t, &Runner{KeepPerSeed: true, Executor: cold}, []Spec{spec}, seeds)
	warm := &Cache{Inner: failExecutor("missed"), Dir: dir}
	b := mustRun(t, &Runner{KeepPerSeed: true, Executor: warm}, []Spec{spec}, seeds)
	av, bv := a[0].PerSeed[0].Values, b[0].PerSeed[0].Values
	if len(av) != len(bv) {
		t.Fatalf("value sets differ: %v vs %v", av, bv)
	}
	for k := range av {
		if math.Float64bits(av[k]) != math.Float64bits(bv[k]) {
			t.Errorf("%s: %#x vs %#x", k, math.Float64bits(av[k]), math.Float64bits(bv[k]))
		}
	}
}
