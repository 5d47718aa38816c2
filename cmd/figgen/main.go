// Command figgen regenerates the figures and experiments of the
// reproduction from the scenario registry: every experiment registered by
// internal/exp (the paper's figures, the Section 1 survey experiments and
// the design ablations) is available by name, regex or tag. Run
// `figgen -list` for the authoritative catalogue — it is generated from
// the registry, so it never drifts from the code.
//
// Usage:
//
//	figgen [-seed N] [-seeds N] [-parallel N] [-run REGEX] [-tags T1,T2]
//	       [-backend local|shard|cached] [-workers N] [-cache-dir DIR]
//	       [-addrs HOST:PORT,...] [-store HOST:PORT]
//	       [-max-retries N] [-chunk-timeout D] [-restart-backoff D]
//	       [-dial-timeout D] [-frame-timeout D]
//	       [-degrade-local] [-chaos SCHEDULE] [-health-json FILE]
//	       [-json] [-list] [-cpuprofile FILE] [-memprofile FILE]
//	       [experiment ...]
//	figgen -serve ADDR [-chaos SCHEDULE]
//	figgen -serve-store ADDR [-cache-dir DIR]
//
// With no selection flags every experiment runs in order. All (experiment
// × seed) jobs run on the backend selected by -backend: the in-process
// pool sized by -parallel (default), -workers supervised worker processes
// this binary spawns (or, with -addrs, connections to figgen -serve worker
// servers) speaking the internal shard protocol over TCP, or the local
// pool behind the on-disk result cache at -cache-dir (optionally shared
// across machines via -store pointing at a figgen -serve-store server; see
// EXPERIMENTS.md, "Execution backends" and "Distributed mode"). The output
// is identical for every backend, worker kind and pool size, only the wall
// clock changes — the shard backend retries, restarts and degrades around
// worker failures (tunable via -max-retries, -chunk-timeout,
// -restart-backoff, -dial-timeout and -frame-timeout; fault injection for
// testing via -chaos) without costing a single output bit (see
// EXPERIMENTS.md, "Fault tolerance"). With -seeds N > 1 each selected experiment runs on N
// consecutive seeds (base -seed) and figgen reports each metric's mean ±
// 95% confidence interval. After the tables, table mode appends the
// backend's run summary (shard worker health, cache hit/miss/write-error
// counters); -json keeps stdout machine-parseable and leaves the summary
// on stderr only; -health-json FILE ("-" for stdout) additionally writes
// the structured counters as JSON. -cpuprofile/-memprofile bracket
// whatever the command runs — so profiling the hot path of any registered
// experiment is one command. Performance is measured by the repository
// benchmark (bench/README.md), not by figgen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	_ "repro/internal/exp" // register the experiment catalogue
	"repro/internal/scenario"
)

type options struct {
	rf      cli.RunFlags
	pattern string
	tags    string
	jsonOut bool
	list    bool
	names   []string
}

func main() {
	var o options
	o.rf.Register(flag.CommandLine)
	flag.StringVar(&o.pattern, "run", "", "run only experiments whose name matches this anchored regexp")
	flag.StringVar(&o.tags, "tags", "", "run only experiments carrying one of these comma-separated tags")
	flag.BoolVar(&o.jsonOut, "json", false, "emit machine-readable JSON instead of tables")
	flag.BoolVar(&o.list, "list", false, "list experiments and exit")
	flag.Parse()
	o.names = flag.Args()

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintf(os.Stderr, "figgen: %v\n", err)
		os.Exit(2)
	}
}

// run executes figgen against the global registry, writing all output to w.
func run(w io.Writer, o options) error {
	if served, err := o.rf.ServeMode(); served {
		// Server modes — spawned shard worker on a loopback port it
		// announces on stdout (-worker), remote shard worker (-serve),
		// shared result store (-serve-store) — do nothing else, and read no
		// other flag.
		return err
	}
	if o.list {
		list(w)
		return nil
	}
	specs, err := selectSpecs(o)
	if err != nil {
		return err
	}
	if len(specs) == 0 {
		return fmt.Errorf("no experiments match (use -list)")
	}
	// Every run goes through the shared Runner setup so -parallel fans
	// (experiment × seed) jobs even at -seeds 1; single-seed output renders
	// the classic per-experiment tables from the lone per-seed result, so
	// only that case asks the (otherwise streaming) Runner to retain raw
	// Results.
	seeds := o.rf.Seeds()
	aggs, err := o.rf.Run(specs, len(seeds) == 1)
	if err != nil {
		return err
	}
	if o.jsonOut {
		docs := make([]jsonExperiment, 0, len(aggs))
		for _, agg := range aggs {
			if len(seeds) == 1 {
				docs = append(docs, jsonSingle(agg.Spec, seeds[0], agg.PerSeed[0]))
			} else {
				docs = append(docs, jsonAgg(agg))
			}
		}
		return writeJSON(w, docs)
	}
	for _, agg := range aggs {
		fmt.Fprintf(w, "=== %s — %s\n", agg.Spec.Name, agg.Spec.Desc)
		if len(seeds) == 1 {
			fmt.Fprintln(w, agg.PerSeed[0].Table)
		} else {
			fmt.Fprintln(w, agg.Table())
		}
	}
	printRunSummary(w, o.rf.LastRun)
	return nil
}

// printRunSummary appends the backend counters the run left behind —
// shard worker health, cache hit/miss/write-error totals — after the
// tables. The local backend keeps no counters, so single-process output
// is byte-identical to previous releases.
func printRunSummary(w io.Writer, s cli.RunSummary) {
	if s.Shard != nil {
		fmt.Fprintf(w, "--- run summary\n%s\n", s.Shard.Summary())
	}
	if s.Cache != nil {
		fmt.Fprintf(w, "--- run summary\n%s\n", s.Cache)
	}
}

// selectSpecs resolves the -run / -tags / positional-name selection.
func selectSpecs(o options) ([]scenario.Spec, error) {
	var tags []string
	for _, t := range strings.Split(o.tags, ",") {
		if t = strings.TrimSpace(t); t != "" {
			tags = append(tags, t)
		}
	}
	return scenario.Match(o.pattern, tags, o.names)
}

// list prints the registry-generated catalogue: names, descriptions, tags.
func list(w io.Writer) {
	for _, s := range scenario.All() {
		fmt.Fprintf(w, "%-16s %-55s [%s]\n", s.Name, s.Desc, strings.Join(s.Tags, ","))
	}
}

// jsonExperiment is figgen's -json document, one object per experiment.
type jsonExperiment struct {
	Experiment string             `json:"experiment"`
	Desc       string             `json:"desc"`
	Tags       []string           `json:"tags"`
	Seeds      []int64            `json:"seeds"`
	Values     map[string]float64 `json:"values,omitempty"`  // single seed
	Metrics    []jsonMetric       `json:"metrics,omitempty"` // multi seed
}

type jsonMetric struct {
	Name string  `json:"name"`
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	N    int     `json:"n"`
}

func jsonSingle(s scenario.Spec, seed int64, r scenario.Result) jsonExperiment {
	return jsonExperiment{
		Experiment: s.Name, Desc: s.Desc, Tags: s.Tags,
		Seeds: []int64{seed}, Values: r.Values,
	}
}

func jsonAgg(a scenario.AggResult) jsonExperiment {
	doc := jsonExperiment{
		Experiment: a.Spec.Name, Desc: a.Spec.Desc, Tags: a.Spec.Tags,
		Seeds: a.Seeds,
	}
	for _, m := range a.Metrics {
		doc.Metrics = append(doc.Metrics, jsonMetric{
			Name: m.Name, Mean: m.Mean, CI95: m.CI95, Min: m.Min, Max: m.Max, N: m.N,
		})
	}
	return doc
}

// writeJSON emits all selected experiments as one JSON array, so -json
// output is always a single valid document however many experiments ran.
func writeJSON(w io.Writer, docs []jsonExperiment) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(docs)
}
