// Command macbench compares the power-saving MAC protocols from the
// paper's Section 1 survey — CAM (plain DCF), 802.11 PSM and EC-MAC — on a
// configurable downlink load (exp.MACLoad, e5's model). The sweep runs on
// the scenario engine's Runner: with -seeds N each protocol is measured
// across N consecutive seeds on the backend selected by -backend
// (in-process pool, supervised shard workers with retry/restart/degrade
// fault tolerance — see EXPERIMENTS.md "Fault tolerance" — or the on-disk
// result cache; results are identical for any backend and pool size) and
// reported as mean ± 95% CI. Any repository binary's -serve worker can
// answer it. The shard backend reports its worker-health counters on
// stderr after the run.
//
// Example:
//
//	macbench -stations 4 -rate 16 -duration 30 -seeds 8 -parallel 8
//	macbench -stations 8 -seeds 64 -backend shard -workers 8
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func main() {
	var rf cli.RunFlags
	rf.Register(flag.CommandLine)
	var load exp.MACLoad
	flag.IntVar(&load.Stations, "stations", 4, "number of client stations")
	flag.Float64Var(&load.RateKBs, "rate", 16, "downlink KB/s per station")
	flag.Float64Var(&load.Duration, "duration", 30, "simulated seconds")
	flag.Parse()

	if served, err := rf.ServeMode(); served {
		if err != nil {
			fmt.Fprintf(os.Stderr, "macbench: worker: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if err := load.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
		os.Exit(2)
	}
	aggs, err := rf.Run(load.Specs(), false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
		os.Exit(2)
	}

	t := stats.NewTable(
		fmt.Sprintf("MAC comparison — %d stations, %.0f KB/s each, %.0fs, %d seed(s)",
			load.Stations, load.RateKBs, load.Duration, rf.SeedsN),
		"protocol", "client avg W", "±95% CI", "collisions", "frames delivered")
	for _, a := range aggs {
		w := metric(a, "avgW")
		t.AddRow(a.Spec.Desc,
			fmt.Sprintf("%.3f", w.Mean), fmt.Sprintf("%.3f", w.CI95),
			fmt.Sprintf("%.1f", metric(a, "collisions").Mean),
			fmt.Sprintf("%.1f", metric(a, "delivered").Mean))
	}
	fmt.Println(t)
}

// metric returns the named aggregated metric, or a zero Metric if the
// experiment did not emit it.
func metric(a scenario.AggResult, name string) scenario.Metric {
	for _, m := range a.Metrics {
		if m.Name == name {
			return m
		}
	}
	return scenario.Metric{Name: name}
}
