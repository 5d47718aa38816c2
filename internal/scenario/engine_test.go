// Engine-level tests against the real experiment catalogue: the external
// test package imports internal/exp for its registration side effect, the
// same way the frontends do.
package scenario_test

import (
	"reflect"
	"testing"

	_ "repro/internal/exp" // register the experiment catalogue
	"repro/internal/scenario"
)

func TestRealCatalogueRegistered(t *testing.T) {
	specs := scenario.All()
	if len(specs) < 20 {
		t.Fatalf("registry has %d specs, want ≥ 20 (figs + E3..E17 + ablations)", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || s.Desc == "" || !s.Runnable() {
			t.Errorf("malformed spec %+v", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate spec %q", s.Name)
		}
		seen[s.Name] = true
	}
	tags := map[string]bool{}
	for _, s := range specs {
		for _, tag := range s.Tags {
			tags[tag] = true
		}
	}
	if len(tags) < 4 {
		t.Errorf("tag union %v suspiciously small", tags)
	}
}

func TestRealExperimentDeterministicAcrossParallelism(t *testing.T) {
	// A real simulation experiment (not a synthetic stub) must aggregate
	// byte-identically whatever the worker-pool size.
	spec, ok := scenario.Lookup("e17")
	if !ok {
		t.Fatal("e17 not registered")
	}
	seeds := scenario.Seeds(1, 4)
	seq, err := (&scenario.Runner{Parallel: 1}).Run([]scenario.Spec{spec}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&scenario.Runner{Parallel: 8}).Run([]scenario.Spec{spec}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq[0].Metrics, par[0].Metrics) {
		t.Errorf("e17 metrics differ between parallel 1 and 8:\n%v\n%v",
			seq[0].Metrics, par[0].Metrics)
	}
	if seq[0].Table() != par[0].Table() {
		t.Error("rendered aggregate table not byte-identical")
	}
	if len(seq[0].Metrics) == 0 {
		t.Error("e17 aggregate has no metrics")
	}
}
