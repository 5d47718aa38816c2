package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary when the
// Shard executor re-executes it as a worker or TCP server.
func TestMain(m *testing.M) {
	if served, code := serveMode(os.Args[1:]); served {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runReduced executes cfg at the reduced scale from the repository root,
// parses the JSON line if one was printed, and checks that no child
// process outlived the run.
func runReduced(t *testing.T, ctx context.Context, cfg config) (int, result) {
	t.Helper()
	cfg.reduced = true
	cfg.spans = filepath.Join(t.TempDir(), "spans.json")
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := execute(ctx, cfg, start, &stdout, &stderr)
	t.Logf("%s trace=%v: exit %d after %v", cfg.workload, cfg.trace, code, time.Since(start).Round(time.Millisecond))
	if kids := children(); len(kids) > 0 {
		t.Errorf("%s: child processes %v outlived the run", cfg.workload, kids)
	}
	var res result
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code != 130 {
		t.Fatalf("%s: last line is not the JSON result: %v\nstdout:\n%s\nstderr:\n%s", cfg.workload, err, &stdout, &stderr)
	}
	if code == 0 && stderr.Len() > 0 {
		t.Logf("%s stderr:\n%s", cfg.workload, &stderr)
	}
	return code, res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// readDeclaration reads BENCHMARK.json from the repository root.
func readDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declaration
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	return decl
}

// checkNames checks the printed metrics against the declared ones in both
// directions, with their units.
func checkNames(t *testing.T, what string, res result, want []metricDecl) {
	t.Helper()
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not printed", what, d.Name)
		} else if m.Unit != d.Unit || d.Unit == "" {
			t.Errorf("%s: %s printed in %q, declared in %q", what, d.Name, m.Unit, d.Unit)
		}
	}
	for name := range res.Metrics {
		if !nameRE.MatchString(name) {
			t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", what, name)
		}
		if !slices.ContainsFunc(want, func(d metricDecl) bool { return d.Name == name }) {
			t.Errorf("%s: printed metric %s is not declared", what, name)
		}
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload untraced, and a
// Local-round workload traced, on one round of one seed, and checks the
// printed metrics against BENCHMARK.json. The traced run's metric set does
// not depend on the workload; TestFlippedBitFailsTheRun checks it on the
// shard-round workload.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	t.Chdir("..")
	decl := readDeclaration(t)
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloadNames()) {
		t.Errorf("BENCHMARK.json declares workloads %v, the code has %v", declared, workloadNames())
	}
	runs := []config{{workload: "dense-mac", trace: true}}
	for _, w := range workloads {
		runs = append(runs, config{workload: w.name})
	}
	for _, cfg := range runs {
		cfg.seed = 1
		want := decl.EndToEnd
		if cfg.trace {
			want = decl.PerLayer
		}
		what := fmt.Sprintf("%s trace=%v", cfg.workload, cfg.trace)
		code, res := runReduced(t, context.Background(), cfg)
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: exit %d, correct %v, %d of %d failed", what, code, res.Correct, res.Failed, res.Attempted)
		}
		checkNames(t, what, res, want)
		if ff, ok := res.Metrics["fail_frac"]; ok && ff.Value != 0 {
			t.Errorf("%s: fail_frac %v", what, ff.Value)
		}
	}
}

// TestFlippedBitFailsTheRun corrupts one replayed Result: the run must
// count the failure and exit non-zero, still printing every metric.
func TestFlippedBitFailsTheRun(t *testing.T) {
	t.Chdir("..")
	code, res := runReduced(t, context.Background(), config{workload: "sweep-fabric", seed: 1, trace: true, flipBit: true})
	if code == 0 || res.Correct || res.Failed == 0 || res.Metrics["fail_frac"].Value <= 0 {
		t.Errorf("exit %d, correct %v, failed %d, fail_frac %v: want a failed run", code, res.Correct, res.Failed, res.Metrics["fail_frac"].Value)
	}
	checkNames(t, "sweep-fabric trace=true", res, readDeclaration(t).PerLayer)
}

// TestInterruptReapsChildren cancels the run once its fleets are up, as
// SIGINT does: it must stop without a result and leave no child behind
// (runReduced checks the latter).
func TestInterruptReapsChildren(t *testing.T) {
	t.Chdir("..")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if code, _ := runReduced(t, ctx, config{workload: "sweep-fabric", seed: 1}); code != 130 {
		t.Errorf("exit %d, want 130", code)
	}
}
