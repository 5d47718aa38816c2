// Command macbench compares the power-saving MAC protocols from the
// paper's Section 1 survey — CAM (plain DCF), 802.11 PSM and EC-MAC — on a
// configurable downlink load. The sweep runs on the scenario engine's
// Runner: with -seeds N each protocol is measured across N consecutive
// seeds on the backend selected by -backend (in-process pool, supervised
// worker subprocesses with retry/restart/degrade fault tolerance — see
// -max-retries, -chunk-timeout, -restart-backoff, -degrade-local and
// EXPERIMENTS.md "Fault tolerance" — or the on-disk result cache; results
// are identical for any backend and pool size) and reported as mean ±
// 95% CI. The shard backend reports its worker-health counters on stderr
// after the run.
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
	"repro/internal/frame"
	"repro/internal/mac/dcf"
	"repro/internal/mac/ecmac"
	"repro/internal/mac/psm"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	var rf cli.RunFlags
	rf.Register(flag.CommandLine)
	var (
		stationsN = flag.Int("stations", 4, "number of client stations")
		rateKBs   = flag.Float64("rate", 16, "downlink KB/s per station")
		duration  = flag.Float64("duration", 30, "simulated seconds")
	)
	flag.Parse()

	if err := cli.CheckNumFlags(
		cli.NumFlag{Name: "rate", Value: *rateKBs},
		cli.NumFlag{Name: "duration", Value: *duration, Seconds: true},
	); err != nil {
		fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
		os.Exit(2)
	}
	chunk := 2000
	interval := sim.FromSeconds(float64(chunk) / (*rateKBs * 1024))
	dur := sim.FromSeconds(*duration)

	// The specs close over the CLI parameters, so Params records them
	// canonically: shard workers rebuild identical specs from the re-exec'd
	// command line, and the result cache keys on the parameterization.
	specs := protocolSpecs(*stationsN, chunk, interval, dur)
	params := fmt.Sprintf("stations=%d rate=%g duration=%g", *stationsN, *rateKBs, *duration)
	for i := range specs {
		specs[i].Params = params
	}
	if served, err := rf.ServeMode(specs...); served {
		if err != nil {
			fmt.Fprintf(os.Stderr, "macbench: worker: %v\n", err)
			os.Exit(2)
		}
		return
	}
	seeds := rf.Seeds()
	aggs, err := rf.Run(specs, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
		os.Exit(2)
	}

	t := stats.NewTable(
		fmt.Sprintf("MAC comparison — %d stations, %.0f KB/s each, %.0fs, %d seed(s)",
			*stationsN, *rateKBs, *duration, len(seeds)),
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

// protocolSpecs builds one scenario spec per MAC protocol, closed over the
// CLI's load parameters, so the generic Runner can sweep them.
func protocolSpecs(n, chunk int, interval, dur sim.Time) []scenario.Spec {
	return []scenario.Spec{
		{Name: "cam", Desc: "CAM (DCF)", Tags: []string{"mac"}, Run: func(seed int64) scenario.Result {
			w, coll, recv := runDCF(seed, n, chunk, interval, dur, false)
			return macResult("cam", w, coll, recv)
		}},
		{Name: "psm", Desc: "802.11 PSM", Tags: []string{"mac"}, Run: func(seed int64) scenario.Result {
			w, coll, recv := runDCF(seed, n, chunk, interval, dur, true)
			return macResult("psm", w, coll, recv)
		}},
		{Name: "ecmac", Desc: "EC-MAC", Tags: []string{"mac"}, Run: func(seed int64) scenario.Result {
			w, recv := runECMAC(seed, n, chunk, interval, dur)
			return macResult("ecmac", w, 0, recv)
		}},
	}
}

func macResult(name string, w float64, coll, recv int) scenario.Result {
	return scenario.Result{Name: name, Values: map[string]float64{
		"avgW": w, "collisions": float64(coll), "delivered": float64(recv),
	}}
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

func runDCF(seed int64, n, chunk int, interval, dur sim.Time, ps bool) (float64, int, int) {
	s := sim.New(seed)
	m := dcf.NewMedium(s, dcf.Default80211b(), nil)
	apDev := radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
	ap := psm.NewAP(s, m, apDev, psm.DefaultConfig())
	devs := make([]*radio.Device, n)
	recv := 0
	for i := 0; i < n; i++ {
		devs[i] = radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
		if ps {
			cl := psm.NewClient(s, m, devs[i], ap, i, psm.DefaultConfig())
			cl.OnData = func(*frame.Frame) { recv++ }
		} else {
			st := dcf.NewStation(i, m, devs[i])
			st.OnReceive = func(f *frame.Frame) {
				if f.Kind == frame.Data {
					recv++
				}
			}
		}
	}
	sim.NewTicker(s, interval, func() {
		for i := 0; i < n; i++ {
			ap.Deliver(i, chunk)
		}
	})
	s.RunUntil(dur)
	var w float64
	for _, d := range devs {
		w += d.Meter().AveragePower()
	}
	return w / float64(n), m.Stats().Collisions, recv
}

func runECMAC(seed int64, n, chunk int, interval, dur sim.Time) (float64, int) {
	s := sim.New(seed)
	bs := radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
	net := ecmac.NewNetwork(s, ecmac.DefaultConfig(), bs)
	for i := 0; i < n; i++ {
		net.Register(i, radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle))
	}
	net.Start()
	sim.NewTicker(s, interval, func() {
		for i := 0; i < n; i++ {
			net.Deliver(i, chunk)
		}
	})
	s.RunUntil(dur)
	var w float64
	for i := 0; i < n; i++ {
		w += net.StationEnergy(i)
	}
	return w / float64(n), net.Stats().PacketsDeliv
}
