// Package exp contains one runnable function per reproduced figure, table
// and survey experiment (FIG1, FIG2, E3–E15, plus ablations). Both the
// figgen command and the benchmark harness call into this package, so the
// terminal output and the benchmarked code paths are identical.
package exp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Result bundles an experiment's rendered table with machine-readable
// key figures used by tests and EXPERIMENTS.md assertions. It is an alias
// of scenario.Result, so every function below registers directly as a
// scenario Spec run function.
type Result = scenario.Result

// Each file in this package contributes its experiments through a
// *Catalogue() slice; init() merges them and registers everything in paper
// order (figures, then E3–E17 numerically, then ablations), which is the
// order `figgen -list` and the registry report.
func init() {
	var all []scenario.Spec
	all = append(all, figureCatalogue()...)
	all = append(all, surveyCatalogue()...)
	all = append(all, hotspotCatalogue()...)
	all = append(all, osCatalogue()...)
	all = append(all, metroCatalogue()...)
	sort.SliceStable(all, func(i, j int) bool {
		ri, ni := catalogueRank(all[i].Name)
		rj, nj := catalogueRank(all[j].Name)
		if ri != rj {
			return ri < rj
		}
		if ni != nj {
			return ni < nj
		}
		return all[i].Name < all[j].Name
	})
	for _, s := range all {
		scenario.Register(s)
	}
}

// catalogueRank orders experiment names the way the paper presents them:
// figures first, then the numbered survey experiments, then ablations.
func catalogueRank(name string) (class, num int) {
	switch {
	case strings.HasPrefix(name, "fig"):
		n, _ := strconv.Atoi(name[3:])
		return 0, n
	case strings.HasPrefix(name, "e"):
		if n, err := strconv.Atoi(name[1:]); err == nil {
			return 1, n
		}
	}
	return 2, 0
}

// figureCatalogue lists this file's experiments: the paper's two figures.
func figureCatalogue() []scenario.Spec {
	return []scenario.Spec{
		{Name: "fig1", Desc: "Figure 1: sample schedule (transfers + power levels)",
			Tags: []string{"figure", "hotspot"}, Run: Figure1},
		{Name: "fig2", Desc: "Figure 2: average WNIC power, 3 MP3 clients",
			Tags: []string{"figure", "hotspot"}, Run: func(seed int64) Result {
				return Figure2(seed, 5*sim.Minute)
			}},
	}
}

// Figure1 reproduces the paper's Figure 1: a sample schedule for three
// concurrent clients, transfer slots above, WNIC power levels beneath.
func Figure1(seed int64) Result {
	h := core.NewHotspot(seed, core.DefaultConfig(), 3)
	traces := map[int]*trace.PowerTrace{}
	for _, c := range h.RM().Clients() {
		c := c
		tr := &trace.PowerTrace{}
		traces[c.ID()] = tr
		tr.Record(0, c.CurrentPower())
		c.OnPower = func(t sim.Time, w float64) { tr.Record(t, w) }
	}
	rep := h.Run(45 * sim.Second)

	var windows []trace.Window
	for _, s := range rep.Slots {
		windows = append(windows, trace.Window{Lane: s.Client, Start: s.Start, End: s.End})
	}
	g := trace.NewGantt(0, 45*sim.Second, 90)
	g.MaxPower = 1.5
	fig := trace.Figure1(g, []int{0, 1, 2}, windows, traces)

	return Result{
		Name:  "figure-1-sample-schedule",
		Table: fig,
		Values: map[string]float64{
			"slots":     float64(len(rep.Slots)),
			"underruns": float64(rep.TotalUnderruns),
		},
	}
}

// Figure2 reproduces the paper's Figure 2: average WNIC power for three
// concurrent MP3 clients under unscheduled WLAN, unscheduled Bluetooth, and
// Hotspot scheduling. The paper reports ≈1.4 W / ≈0.5 W / ≈0.04 W and a
// 97 % saving with QoS maintained.
func Figure2(seed int64, duration sim.Time) Result {
	rows, saving := core.Figure2(seed, 3, duration)
	t := stats.NewTable("Figure 2 — average iPAQ WNIC power, 3 clients streaming 128 kb/s MP3",
		"strategy", "power (W)", "underruns", "paper (W)")
	paper := []string{"1.40", "0.50", "0.04"}
	for i, r := range rows {
		t.AddRow(r.Strategy, fmt.Sprintf("%.4f", r.MeanW), fmt.Sprintf("%d", r.Underruns), paper[i])
	}
	t.AddNote("measured WNIC power saving vs unscheduled WLAN: %.1f%% (paper: 97%%)", saving*100)
	t.AddNote("QoS maintained: no playout underruns in the scheduled run")
	return Result{
		Name:  "figure-2-average-power",
		Table: t.String(),
		Values: map[string]float64{
			"wlanW":   rows[0].MeanW,
			"btW":     rows[1].MeanW,
			"hsW":     rows[2].MeanW,
			"saving":  saving,
			"underhs": float64(rows[2].Underruns),
		},
	}
}
