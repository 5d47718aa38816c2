// Command hotspotsim runs a Hotspot resource-manager scenario with
// configurable clients, scheduler, interface policy and duration. A single
// seed prints the detailed per-client power/QoS report (and optionally the
// schedule); with -seeds N > 1 the scenario runs on the scenario engine's
// Runner across N consecutive seeds — on the backend selected by -backend
// (in-process pool, supervised worker subprocesses with
// retry/restart/degrade fault tolerance, or the on-disk result cache) —
// and reports each metric as mean ± 95% CI. The output is identical for
// any backend and pool size; shard supervision knobs (-max-retries,
// -chunk-timeout, -restart-backoff, -degrade-local) and worker-health
// reporting are shared with figgen (see EXPERIMENTS.md, "Fault
// tolerance").
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

	"repro/internal/channel"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	var rf cli.RunFlags
	rf.Register(flag.CommandLine)
	var (
		nClients  = flag.Int("clients", 3, "number of MP3-streaming clients")
		duration  = flag.Float64("duration", 120, "simulated seconds")
		schedName = flag.String("scheduler", "edf", "scheduler: edf | wfq | rr")
		polName   = flag.String("policy", "adaptive", "interface policy: adaptive | wlan | bt")
		epoch     = flag.Float64("epoch", 10, "scheduling epoch (burst period) in seconds")
		showSlots = flag.Bool("slots", false, "print the burst schedule (single seed only)")
		outageAt  = flag.Float64("wlan-outage", 0, "force a WLAN outage at this second (0 = none)")
		outageLen = flag.Float64("outage-len", 40, "outage length in seconds")
	)
	flag.Parse()

	// Validate the selector flags exactly once, before any simulation (and
	// before the Runner's workers start): mkConfig itself must stay
	// error-free because it runs per seed on pool goroutines.
	var mkSched func() core.Scheduler
	switch *schedName {
	case "edf":
		mkSched = func() core.Scheduler { return core.EDF{} }
	case "wfq":
		mkSched = func() core.Scheduler { return core.NewWFQ() }
	case "rr":
		mkSched = func() core.Scheduler { return core.RoundRobin{} }
	default:
		fmt.Fprintf(os.Stderr, "hotspotsim: unknown scheduler %q\n", *schedName)
		os.Exit(2)
	}
	var policy core.IfacePolicy
	switch *polName {
	case "adaptive":
		policy = core.PolicyAdaptive
	case "wlan":
		policy = core.PolicyWLANOnly
	case "bt":
		policy = core.PolicyBTOnly
	default:
		fmt.Fprintf(os.Stderr, "hotspotsim: unknown policy %q\n", *polName)
		os.Exit(2)
	}
	mkConfig := func() core.Config {
		cfg := core.DefaultConfig()
		cfg.Epoch = sim.FromSeconds(*epoch)
		cfg.Scheduler = mkSched()
		cfg.Policy = policy
		return cfg
	}

	runOne := func(s int64) (*core.Hotspot, core.Report) {
		h := core.NewHotspot(s, mkConfig(), *nClients)
		if *outageAt > 0 {
			at := sim.FromSeconds(*outageAt)
			h.Sim().At(at, func() { h.Channel(core.WLAN).ForceState(channel.Bad) })
			h.Sim().At(at+sim.FromSeconds(*outageLen), func() {
				h.Channel(core.WLAN).ForceState(channel.Good)
			})
		}
		rep := h.Run(sim.FromSeconds(*duration))
		return h, rep
	}

	// The ad-hoc spec wraps the configured scenario so the generic Runner —
	// and shard workers rebuilding it from the same command line — can run
	// it by name. Params pins every flag that shapes the result, keying the
	// result cache to the exact configuration.
	spec := scenario.Spec{
		Name: "hotspot",
		Desc: fmt.Sprintf("%d clients, %s/%s, epoch %.0fs", *nClients, *schedName, *polName, *epoch),
		Tags: []string{"hotspot"},
		Params: fmt.Sprintf("clients=%d scheduler=%s policy=%s epoch=%g duration=%g outage=%g outage-len=%g",
			*nClients, *schedName, *polName, *epoch, *duration, *outageAt, *outageLen),
		Run: func(s int64) scenario.Result {
			h, rep := runOne(s)
			switches := 0
			for _, c := range h.RM().Clients() {
				switches += c.Switches()
			}
			return scenario.Result{Name: "hotspot", Values: map[string]float64{
				"meanW":     rep.MeanPowerW,
				"underruns": float64(rep.TotalUnderruns),
				"stallS":    rep.TotalStall.Seconds(),
				"urgents":   float64(h.RM().Urgents()),
				"switches":  float64(switches),
				"slots":     float64(len(rep.Slots)),
			}}
		},
	}

	if served, err := rf.ServeMode(spec); served {
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotspotsim: worker: %v\n", err)
			os.Exit(2)
		}
		return
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
		h, rep := runOne(rf.Seed)
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
	aggs, err := rf.Run([]scenario.Spec{spec}, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hotspotsim: %v\n", err)
		os.Exit(2)
	}
	fmt.Print(aggs[0].Table())
}
