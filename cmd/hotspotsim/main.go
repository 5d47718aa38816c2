// Command hotspotsim runs a Hotspot resource-manager scenario
// (exp.HotspotRun, e15's model) with configurable clients, scheduler,
// interface policy and duration. A single seed prints the detailed
// per-client power/QoS report (and optionally the schedule); with -seeds
// N > 1 the scenario runs on the scenario engine's Runner across N
// consecutive seeds — on the backend selected by -backend (in-process
// pool, supervised shard workers with retry/restart/degrade fault
// tolerance, or the on-disk result cache) — and reports each metric as
// mean ± 95% CI. The output is identical for any backend and pool size,
// and any repository binary's -serve worker can answer it. Shard
// supervision and worker-health reporting are shared with figgen (see
// EXPERIMENTS.md, "Fault tolerance").
//
// Example:
//
//	hotspotsim -clients 3 -duration 120 -scheduler edf -policy adaptive -slots
//	hotspotsim -clients 3 -wlan-outage 40 -seeds 8 -parallel 8
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/scenario"
)

func main() {
	var rf cli.RunFlags
	rf.Register(flag.CommandLine)
	var run exp.HotspotRun
	flag.IntVar(&run.Clients, "clients", 3, "number of MP3-streaming clients")
	flag.Float64Var(&run.Duration, "duration", 120, "simulated seconds")
	flag.StringVar(&run.Scheduler, "scheduler", "edf", "scheduler: edf | wfq | rr")
	flag.StringVar(&run.Policy, "policy", "adaptive", "interface policy: adaptive | wlan | bt")
	flag.Float64Var(&run.Epoch, "epoch", 10, "scheduling epoch (burst period) in seconds")
	showSlots := flag.Bool("slots", false, "print the burst schedule (single seed only)")
	flag.Float64Var(&run.OutageAt, "wlan-outage", 0, "force a WLAN outage at this second (0 = none)")
	flag.Float64Var(&run.OutageLen, "outage-len", 40, "outage length in seconds")
	flag.Parse()

	if served, err := rf.ServeMode(); served {
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotspotsim: worker: %v\n", err)
			os.Exit(2)
		}
		return
	}
	// Validate before any simulation: a bad value would otherwise panic
	// inside a pool goroutine.
	if err := run.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "hotspotsim: %v\n", err)
		os.Exit(2)
	}

	if rf.SeedsN == 1 {
		// The single-seed path bypasses the Runner (and therefore the
		// execution backends) for its detailed report. Still validate the
		// backend selection so a typo'd -backend fails here exactly like it
		// does in every other command, and refuse the non-default backends
		// outright rather than silently computing without them.
		if rf.Backend != "" && rf.Backend != "local" {
			if _, err := rf.Executor(); err != nil {
				fmt.Fprintf(os.Stderr, "hotspotsim: %v\n", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "hotspotsim: -backend %s applies to multi-seed runs; the single-seed report always runs locally (use -seeds N > 1)\n", rf.Backend)
			os.Exit(2)
		}
		// Bracket the direct run with the profile hooks.
		stop, err := rf.StartProfiles()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotspotsim: %v\n", err)
			os.Exit(2)
		}
		h, rep := run.Run(rf.Seed)
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "hotspotsim: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(rep)
		fmt.Printf("urgent top-ups: %d\n", h.RM().Urgents())
		if rep.QoSMaintained() {
			fmt.Println("QoS: maintained (no playout underruns)")
		} else {
			fmt.Printf("QoS: %d underruns, %.1fs total stall\n",
				rep.TotalUnderruns, rep.TotalStall.Seconds())
		}
		if *showSlots {
			fmt.Println("\nschedule:")
			for _, s := range rep.Slots {
				fmt.Printf("  %-9s %s\n", s.Kind, s)
			}
		}
		return
	}

	// Multi-seed: the Runner fans (seed) jobs across the selected backend
	// and aggregates the CI.
	aggs, err := rf.Run([]scenario.Spec{run.Spec()}, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hotspotsim: %v\n", err)
		os.Exit(2)
	}
	fmt.Print(aggs[0].Table())
}
