package exp

import (
	"fmt"
	"math"

	"repro/internal/dvs"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// osCatalogue lists this file's experiments: the OS/network-layer survey
// topics (ad-hoc routing and CPU voltage scaling).
func osCatalogue() []scenario.Spec {
	return []scenario.Spec{
		{Name: "e16", Desc: "E16: energy-efficient ad-hoc routing",
			Tags: []string{"survey", "routing"}, Run: E16Routing},
		{Name: "e17", Desc: "E17: CPU voltage scaling under EDF",
			Tags: []string{"survey", "os"}, Run: E17DVS},
	}
}

// E16Routing compares the energy-efficient ad-hoc routing disciplines the
// paper's survey points to: min-hop, min-energy (MTPR), battery-aware
// max-min (MMBCR) and the conditional hybrid (CMMBCR). Cross-traffic over a
// 5×5 grid drains batteries; the metrics are network lifetime and energy
// per delivered packet.
func E16Routing(seed int64) Result {
	t := stats.NewTable("E16 — energy-efficient ad-hoc routing (5x5 grid, cross traffic)",
		"policy", "first death (pkts)", "delivered @40k", "mJ/pkt", "alive @40k")
	vals := map[string]float64{}
	for _, policy := range []route.Policy{route.MinHop, route.MinEnergy,
		route.MaxMinBattery, route.Conditional} {
		rng := sim.NewRand(seed)
		n := route.NewGrid(5, 5, 10, 15, 0.03, route.DefaultRadioCost())
		firstDeath := math.MaxInt
		for i := 0; i < 40000; i++ {
			src := rng.Intn(5)
			dst := 20 + rng.Intn(5)
			n.Send(policy, src, dst, 8000)
			if _, _, _, death := n.Stats(); death != -1 && firstDeath == math.MaxInt {
				firstDeath = death
			}
		}
		delivered, _, energy, _ := n.Stats()
		perPkt := 0.0
		if delivered > 0 {
			perPkt = energy / float64(delivered) * 1e3
		}
		deathStr := "-"
		deathVal := float64(firstDeath)
		if firstDeath == math.MaxInt {
			deathVal = -1
		} else {
			deathStr = fmt.Sprintf("%d", firstDeath)
		}
		t.AddRow(policy.String(), deathStr, fmt.Sprintf("%d", delivered),
			fmt.Sprintf("%.3f", perPkt), fmt.Sprintf("%d", n.NumAlive()))
		vals["death-"+policy.String()] = deathVal
		vals["delivered-"+policy.String()] = float64(delivered)
		vals["mjpkt-"+policy.String()] = perPkt
	}
	t.AddNote("min-energy hammers the cheapest relays; battery-aware routing trades per-packet energy for lifetime")
	return Result{Name: "e16-routing", Table: t.String(), Values: vals}
}

// E17DVS evaluates CPU dynamic voltage scaling under EDF at several
// utilizations: the OS-level technique the paper lists alongside device
// shutdown.
func E17DVS(seed int64) Result {
	t := stats.NewTable("E17 — CPU voltage scaling under EDF (10 s, jobs use 50% of WCET)",
		"utilization", "no-DVS (J)", "static (J)", "cycle-conserving (J)", "misses")
	vals := map[string]float64{}
	cpu := dvs.DefaultCPU()
	mkSet := func(util float64) []dvs.Task {
		f := cpu.FMax()
		return []dvs.Task{
			{Name: "a", Period: 20 * sim.Millisecond, WCETCycles: util / 3 * 0.020 * f, UsageFactor: 0.5},
			{Name: "b", Period: 50 * sim.Millisecond, WCETCycles: util / 3 * 0.050 * f, UsageFactor: 0.5},
			{Name: "c", Period: 100 * sim.Millisecond, WCETCycles: util / 3 * 0.100 * f, UsageFactor: 0.5},
		}
	}
	for _, util := range []float64{0.3, 0.5, 0.8} {
		set := mkSet(util)
		no := dvs.Run(sim.New(seed), cpu, dvs.NoDVS, set, 10*sim.Second)
		st := dvs.Run(sim.New(seed), cpu, dvs.StaticDVS, set, 10*sim.Second)
		cc := dvs.Run(sim.New(seed), cpu, dvs.CycleConserving, set, 10*sim.Second)
		misses := no.DeadlineMisses + st.DeadlineMisses + cc.DeadlineMisses
		t.AddRow(fmt.Sprintf("%.0f%%", util*100),
			fmt.Sprintf("%.2f", no.EnergyJ), fmt.Sprintf("%.2f", st.EnergyJ),
			fmt.Sprintf("%.2f", cc.EnergyJ), fmt.Sprintf("%d", misses))
		vals[fmt.Sprintf("no-%.1f", util)] = no.EnergyJ
		vals[fmt.Sprintf("st-%.1f", util)] = st.EnergyJ
		vals[fmt.Sprintf("cc-%.1f", util)] = cc.EnergyJ
		vals[fmt.Sprintf("miss-%.1f", util)] = float64(misses)
	}
	t.AddNote("P ∝ f³: running at the utilization-matched clock wins; reclaiming unused WCET wins more")
	return Result{Name: "e17-dvs", Table: t.String(), Values: vals}
}
