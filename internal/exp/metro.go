package exp

import (
	"fmt"

	"repro/internal/mac/metro"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// metroCatalogue lists the metro-scale scenario family (E18+): city-of-APs
// populations of power-save stations, far beyond the tens-of-stations
// experiments that reproduce the paper's own figures. Every spec carries
// the [analytic] tag: its Values embed both the simulated aggregates and
// the closed-form expectations (analytic.go in internal/mac/metro), and
// the analytic test asserts their agreement within the model's tolerance.
func metroCatalogue() []scenario.Spec {
	return []scenario.Spec{
		{Name: "e18", Desc: "E18: metro-dense — 20k stations, 8 APs, PSM downlink",
			Tags: []string{"metro", "analytic"}, RunTuned: E18MetroDense},
		{Name: "e19", Desc: "E19: metro-churn — Poisson association churn, M/M/∞ population",
			Tags: []string{"metro", "analytic"}, RunTuned: E19MetroChurn},
		{Name: "e20", Desc: "E20: metro-100k — 10⁵ stations, 60 s, cache-resident kernel",
			Tags: []string{"metro", "analytic", "scale"}, RunTuned: E20Metro100k},
	}
}

// metroDense is the shared dense-cell parameter set: 802.11b PSM stations
// waking every 8th 100 ms beacon, 0.2 heavy-tailed downlink frames/s each.
func metroDense(stations, aps int, horizon sim.Time) metro.Config {
	return metro.Config{
		APs:            aps,
		Stations:       stations,
		BeaconInterval: 100 * sim.Millisecond,
		ListenInterval: 8,
		WakeLead:       2 * sim.Millisecond,
		BeaconAir:      1 * sim.Millisecond,
		PollAir:        200 * sim.Microsecond,
		OverheadBytes:  28,
		RatePerStation: 0.2,
		Frame:          metro.Pareto{Alpha: 1.5, MinBytes: 200, MaxBytes: 15000},
		Horizon:        horizon,
		Profile:        radio.WLAN80211b(),
	}
}

// runMetro executes a metro config under the given kernel tuning and
// renders the sim-vs-closed-form comparison. The Values carry both sides
// so the [analytic] agreement is asserted from recorded results (and
// golden-pinned across kernels and backends).
func runMetro(name, title string, seed int64, tun sim.Tuning, cfg metro.Config) Result {
	s := sim.NewTuned(seed, tun)
	m := metro.New(s, cfg)
	m.Start()
	s.RunUntil(cfg.Horizon)
	rep := m.Finish()
	pred := metro.Predict(cfg)

	t := stats.NewTable(title, "aggregate", "simulated", "closed form", "err")
	row := func(label string, simV, modV float64, format string) {
		t.AddRow(label, fmt.Sprintf(format, simV), fmt.Sprintf(format, modV),
			fmt.Sprintf("%.2f%%", relPct(simV, modV)))
	}
	row("energy (J)", rep.EnergyJ, pred.EnergyJ, "%.1f")
	row("avg power (W/station)", rep.AvgPowerW, pred.AvgPowerW, "%.5f")
	row("delivered (Mb/s)", rep.DeliveredGoodputBps/1e6, pred.ThroughputBps/1e6, "%.3f")
	row("station-time (s)", rep.StationSec, pred.StationSec, "%.0f")
	t.AddRow("attended beacons", fmt.Sprintf("%d", rep.AttendedBeacons), "—", "")
	if rep.Arrivals > 0 || rep.Departures > 0 {
		t.AddRow("churn (join/leave)", fmt.Sprintf("%d/%d", rep.Arrivals, rep.Departures), "—", "")
	}
	t.AddNote("closed form: Agrawal-style PSM expectation (internal/mac/metro/analytic.go), tolerance %.0f%%", pred.TolerancePct)

	return Result{
		Name:  name,
		Table: t.String(),
		Values: map[string]float64{
			"simJ":        rep.EnergyJ,
			"modelJ":      pred.EnergyJ,
			"simW":        rep.AvgPowerW,
			"modelW":      pred.AvgPowerW,
			"simBps":      rep.DeliveredGoodputBps,
			"modelBps":    pred.ThroughputBps,
			"simStaSec":   rep.StationSec,
			"modelStaSec": pred.StationSec,
			"tolPct":      pred.TolerancePct,
			"live":        float64(rep.Live),
			"frames":      float64(rep.DeliveredFrames),
		},
	}
}

func relPct(simV, modV float64) float64 {
	if modV == 0 {
		return 0
	}
	d := (simV - modV) / modV * 100
	if d < 0 {
		return -d
	}
	return d
}

// E18MetroDense runs a dense metro cell cluster: 20k immortal stations on
// 8 APs for 30 s — the smallest member of the family, also used as the CI
// smoke scenario across execution backends.
func E18MetroDense(seed int64, tun sim.Tuning) Result {
	return runMetro("e18-metro-dense",
		"E18 — metro-dense: 20k PSM stations, 8 APs, 30 s",
		seed, tun, metroDense(20_000, 8, 30*sim.Second))
}

// E19MetroChurn adds association churn: an M/M/∞ population around 2000
// stations (80 joins/s, 25 s mean lifetime) on a 4096-id space, checking
// the swap-remove/attach-order machinery and the steady-state closed form.
func E19MetroChurn(seed int64, tun sim.Tuning) Result {
	cfg := metroDense(2000, 8, 30*sim.Second)
	cfg.MaxStations = 4096
	cfg.ArrivalRate = 80
	cfg.MeanLifetime = 25 * sim.Second
	return runMetro("e19-metro-churn",
		"E19 — metro-churn: M/M/∞ population (n̄=2000, τ=25 s), 30 s",
		seed, tun, cfg)
}

// E20Metro100k is the scale acceptance spec: 10⁵ stations on 20 APs for
// 60 simulated seconds — ~7.5M TIM attendances and ~1.2M downlink frames
// through a queue of four aggregated events, in seconds of wall time at
// zero steady-state allocations.
func E20Metro100k(seed int64, tun sim.Tuning) Result {
	return runMetro("e20-metro-100k",
		"E20 — metro-100k: 10⁵ stations, 20 APs, 60 s",
		seed, tun, metroDense(100_000, 20, 60*sim.Second))
}
