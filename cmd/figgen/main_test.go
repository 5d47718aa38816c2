package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/scenario"
)

// oldCatalogue is the experiment list the pre-registry figgen hard-coded;
// the registry must keep resolving every one of these names.
var oldCatalogue = []string{
	"fig1", "fig2",
	"e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
	"e13", "e14", "e15", "e16", "e17",
	"ablation-iface", "ablation-margin", "ablation-burst",
}

func TestRegistryResolvesOldCatalogue(t *testing.T) {
	for _, name := range oldCatalogue {
		s, ok := scenario.Lookup(name)
		if !ok {
			t.Errorf("registry missing old catalogue name %q", name)
			continue
		}
		if s.Desc == "" || !s.Runnable() || len(s.Tags) == 0 {
			t.Errorf("spec %q is incomplete: %+v", name, s)
		}
	}
	if got := len(scenario.All()); got < len(oldCatalogue) {
		t.Errorf("registry has %d specs, want ≥ %d", got, len(oldCatalogue))
	}
}

func TestListIsGeneratedFromRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{list: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(scenario.All()) {
		t.Fatalf("-list printed %d lines, registry has %d specs", len(lines), len(scenario.All()))
	}
	for i, s := range scenario.All() {
		if !strings.HasPrefix(lines[i], s.Name) {
			t.Errorf("-list line %d = %q, want prefix %q", i, lines[i], s.Name)
		}
		if !strings.Contains(lines[i], s.Desc) {
			t.Errorf("-list line for %q missing description", s.Name)
		}
	}
	// Paper ordering: figures first, then e3..e17, then ablations.
	if !strings.HasPrefix(lines[0], "fig1") || !strings.HasPrefix(lines[1], "fig2") {
		t.Errorf("-list should start with fig1, fig2; got %q, %q", lines[0], lines[1])
	}
}

func TestRunRegexSelection(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{rf: cli.RunFlags{Seed: 1, SeedsN: 1}, pattern: "e1[5-7]"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"=== e15", "=== e16", "=== e17"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "=== e3") || strings.Contains(out, "=== e14") {
		t.Error("regex selected experiments outside e15..e17")
	}
}

func TestTagSelection(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{rf: cli.RunFlags{Seed: 1, SeedsN: 1}, tags: "ablation"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== ablation-margin") {
		t.Error("tag selection missed ablation-margin")
	}
	if strings.Contains(out, "=== fig1") {
		t.Error("tag selection leaked untagged experiments")
	}
}

func TestUnknownExperimentIsError(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, options{rf: cli.RunFlags{Seed: 1, SeedsN: 1}, names: []string{"nope"}})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown name should error, got %v", err)
	}
}

func TestMultiSeedOutputParallelInvariant(t *testing.T) {
	opts := options{rf: cli.RunFlags{Seed: 1, SeedsN: 4}, pattern: "e17"}
	var seq, par bytes.Buffer
	opts.rf.Parallel = 1
	if err := run(&seq, opts); err != nil {
		t.Fatal(err)
	}
	opts.rf.Parallel = 8
	if err := run(&par, opts); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("-parallel changed output:\n--- parallel=1\n%s\n--- parallel=8\n%s", seq.String(), par.String())
	}
	if !strings.Contains(seq.String(), "±95% CI") {
		t.Error("multi-seed output missing CI column")
	}
}

func TestJSONOutput(t *testing.T) {
	// Multiple experiments must still form one valid JSON document.
	var buf bytes.Buffer
	if err := run(&buf, options{rf: cli.RunFlags{Seed: 1, SeedsN: 3, Parallel: 3}, pattern: "e1[67]", jsonOut: true}); err != nil {
		t.Fatal(err)
	}
	var docs []jsonExperiment
	if err := json.Unmarshal(buf.Bytes(), &docs); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if len(docs) != 2 || docs[0].Experiment != "e16" || docs[1].Experiment != "e17" {
		t.Fatalf("unexpected JSON documents: %+v", docs)
	}
	if len(docs[1].Seeds) != 3 || len(docs[1].Metrics) == 0 {
		t.Errorf("unexpected e17 document: %+v", docs[1])
	}
}

func TestJSONSingleSeedUsesValues(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{rf: cli.RunFlags{Seed: 1, SeedsN: 1}, pattern: "e17", jsonOut: true}); err != nil {
		t.Fatal(err)
	}
	var docs []jsonExperiment
	if err := json.Unmarshal(buf.Bytes(), &docs); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if len(docs) != 1 || len(docs[0].Values) == 0 || len(docs[0].Metrics) != 0 {
		t.Errorf("single-seed JSON should carry raw values, not CI metrics: %+v", docs)
	}
}

func TestSingleSeedHonorsParallel(t *testing.T) {
	// -parallel must apply at -seeds 1 too (experiments fan across the
	// pool) without changing the classic table output.
	var seq, par bytes.Buffer
	if err := run(&seq, options{rf: cli.RunFlags{Seed: 1, SeedsN: 1, Parallel: 1}, pattern: "e1[5-7]"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&par, options{rf: cli.RunFlags{Seed: 1, SeedsN: 1, Parallel: 8}, pattern: "e1[5-7]"}); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Error("-parallel changed single-seed output")
	}
	if !strings.Contains(seq.String(), "=== e15") {
		t.Error("missing classic per-experiment table")
	}
}
