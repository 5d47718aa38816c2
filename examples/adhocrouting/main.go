// Ad-hoc routing: the energy-efficient routing protocols from the paper's
// survey, raced on the same grid topology. Watch min-energy routing drain
// its favourite relays while battery-aware routing spreads the load and
// keeps the network alive longer.
package main

import (
	"fmt"
	"math"

	"repro/internal/route"
	"repro/internal/sim"
)

func main() {
	fmt.Println("5x5 grid, 10 m spacing, 15 m radio range, 0.03 J batteries")
	fmt.Println("cross traffic: 1 KB packets from the left edge to the right edge")
	fmt.Println()
	fmt.Printf("%-18s %18s %16s %10s %12s\n",
		"policy", "first death (pkt)", "delivered @40k", "mJ/pkt", "alive @40k")

	for _, policy := range []route.Policy{route.MinHop, route.MinEnergy,
		route.MaxMinBattery, route.Conditional} {
		rng := sim.NewRand(3)
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
		deathStr := "never"
		if firstDeath != math.MaxInt {
			deathStr = fmt.Sprintf("%d", firstDeath)
		}
		fmt.Printf("%-18s %18s %16d %10.3f %12d\n",
			policy, deathStr, delivered, perPkt, n.NumAlive())
	}

	fmt.Println()
	fmt.Println("min-energy is cheapest per packet but kills bottleneck relays first;")
	fmt.Println("battery-aware (max-min / conditional) routing trades joules for lifetime.")
}
