package exp

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// hotspotCatalogue lists this file's experiments: the transport-layer
// comparison plus the Hotspot resource-manager scenarios and ablations.
func hotspotCatalogue() []scenario.Spec {
	return []scenario.Spec{
		{Name: "e10", Desc: "E10: end-to-end vs split TCP",
			Tags: []string{"survey", "transport"}, Run: E10SplitTCP},
		{Name: "e13", Desc: "E13: EDF vs WFQ vs round-robin",
			Tags: []string{"survey", "hotspot"}, Run: E13Schedulers},
		{Name: "e14", Desc: "E14: burst-size sweep",
			Tags: []string{"survey", "hotspot"}, Run: E14BurstSize},
		{Name: "e15", Desc: "E15: seamless interface switching",
			Tags: []string{"survey", "hotspot"}, Run: E15InterfaceSwitch},
		{Name: "ablation-iface", Desc: "ablation: interface selection off",
			Tags: []string{"ablation", "hotspot"}, Run: AblationInterfaceSelection},
		{Name: "ablation-margin", Desc: "ablation: buffer margin",
			Tags: []string{"ablation", "hotspot"}, Run: AblationMargin},
		{Name: "ablation-burst", Desc: "ablation: burst aggregation",
			Tags: []string{"ablation", "hotspot"}, Run: AblationBurstAggregation},
	}
}

// E10SplitTCP compares end-to-end TCP against a split connection across a
// lossy wireless hop — the paper's transport-layer mitigation ("splitting a
// connection").
func E10SplitTCP(seed int64) Result {
	const bytes = 2_000_000
	bers := []float64{1e-8, 1e-6, 3e-6}
	t := stats.NewTable("E10 — 2 MB transfer over wired+wireless path (goodput kb/s)",
		"wireless BER", "end-to-end", "split", "snoop", "e2e J/KB", "split J/KB", "udp loss")
	vals := map[string]float64{}
	for _, ber := range bers {
		mk := func(s *sim.Simulator) transport.PathConfig {
			ch := channel.NewGilbertElliott(s, channel.GEParams{
				MeanGood: sim.Hour, MeanBad: sim.Second, BERGood: ber, BERBad: 1e-2})
			ch.Freeze()
			return transport.DefaultPathConfig(ch)
		}
		s1 := sim.New(seed)
		e2e := transport.EndToEndTransfer(s1, mk(s1), bytes)
		s2 := sim.New(seed)
		split := transport.SplitTransfer(s2, mk(s2), bytes)
		s4 := sim.New(seed)
		snoop := transport.SnoopTransfer(s4, mk(s4), bytes)
		s3 := sim.New(seed)
		udp := transport.UDPStream(s3, mk(s3), 2000, 1000, 2*sim.Millisecond)

		t.AddRow(fmt.Sprintf("%.0e", ber),
			fmt.Sprintf("%.0f", e2e.GoodputBps/1e3),
			fmt.Sprintf("%.0f", split.GoodputBps/1e3),
			fmt.Sprintf("%.0f", snoop.GoodputBps/1e3),
			fmt.Sprintf("%.3f", e2e.EnergyPerByteJ*1024),
			fmt.Sprintf("%.3f", split.EnergyPerByteJ*1024),
			fmt.Sprintf("%.2f%%", udp.LossRate*100))
		vals[fmt.Sprintf("e2e-%.0e", ber)] = e2e.GoodputBps
		vals[fmt.Sprintf("split-%.0e", ber)] = split.GoodputBps
		vals[fmt.Sprintf("snoop-%.0e", ber)] = snoop.GoodputBps
	}
	t.AddNote("end-to-end TCP reads wireless corruption as congestion; split and snoop confine recovery to the wireless hop")
	return Result{Name: "e10-split-tcp", Table: t.String(), Values: vals}
}

// E13Schedulers compares the resource manager's scheduler menu under a
// transient Bluetooth capacity squeeze (a 25 s fade cuts effective goodput
// to a third): EDF chases deadlines, WFQ shares by weight, round-robin is
// oblivious to both. Results are averaged across five seeds.
func E13Schedulers(seed int64) Result {
	t := stats.NewTable("E13 — scheduler comparison (4 clients on Bluetooth, 25 s capacity squeeze, 5-seed mean)",
		"scheduler", "underruns", "stall (s)", "fairness (recv/weight)", "mean W")
	vals := map[string]float64{}
	const seeds = 5
	// Heterogeneous client rates totalling 56 KB/s: feasible on a clean
	// Bluetooth link, infeasible during the squeeze. Per-client state is
	// kept as columns indexed by client id — one admission column and one
	// received-per-weight column, reused across every scheduler × seed run —
	// rather than per-run appended slices.
	rates := []float64{64e3, 96e3, 128e3, 160e3}
	clients := make([]*core.Client, len(rates))
	perWeight := make([]float64, len(rates))
	for _, sched := range []core.Scheduler{core.EDF{}, core.NewWFQ(), core.RoundRobin{}} {
		var under, stall, fair, meanW stats.Summary
		for k := int64(0); k < seeds; k++ {
			cfg := core.DefaultConfig()
			cfg.Scheduler = sched
			cfg.Policy = core.PolicyBTOnly
			h := core.NewHotspot(seed+k, cfg, 0)
			for i, r := range rates {
				spec := core.DefaultClientSpec(i)
				spec.Stream = qos.StreamSpec{RateBps: r, PrebufferBytes: int(float64(r/8) * 2), CapacityBytes: int(r / 8 * 40)}
				clients[i] = h.RM().Admit(spec)
			}
			// Degraded-but-usable BT for 25 s: inflation triples burst
			// durations, cutting usable capacity below aggregate demand.
			h.Sim().Schedule(40*sim.Second, func() { h.Channel(core.BT).ForceState(channel.Bad) })
			h.Sim().Schedule(65*sim.Second, func() { h.Channel(core.BT).ForceState(channel.Good) })
			h.RM().Start()
			h.Sim().RunUntil(3 * sim.Minute)

			u, st := 0, sim.Time(0)
			var w stats.Summary
			for i, c := range clients {
				u += c.Buffer().Underruns()
				st += c.Buffer().StallTime()
				perWeight[i] = float64(c.Buffer().ReceivedBytes()) / rates[i]
				w.Add(c.AveragePower())
			}
			under.Add(float64(u))
			stall.Add(st.Seconds())
			fair.Add(stats.JainFairness(perWeight))
			meanW.Add(w.Mean())
		}
		t.AddRow(sched.Name(), fmt.Sprintf("%.1f", under.Mean()),
			fmt.Sprintf("%.1f", stall.Mean()), fmt.Sprintf("%.4f", fair.Mean()),
			fmt.Sprintf("%.3f", meanW.Mean()))
		vals["under-"+sched.Name()] = under.Mean()
		vals["stall-"+sched.Name()] = stall.Mean()
		vals["fair-"+sched.Name()] = fair.Mean()
	}
	t.AddNote("paper: schedulers 'ranging from standard real-time schedulers such as EDF to packet level schedulers such as WFQ'")
	return Result{Name: "e13-schedulers", Table: t.String(), Values: vals}
}

// E14BurstSize sweeps the scheduling epoch (and hence burst size): larger
// bursts amortize wake overheads into lower average power at the cost of
// client buffer memory — the knob behind "10s of Kbytes at a time".
func E14BurstSize(seed int64) Result {
	t := stats.NewTable("E14 — burst size sweep (3 MP3 clients, 4 min)",
		"epoch (s)", "burst (KB)", "mean W", "buffer need (KB)", "underruns")
	vals := map[string]float64{}
	for _, epoch := range []sim.Time{2 * sim.Second, 5 * sim.Second, 10 * sim.Second,
		20 * sim.Second, 40 * sim.Second} {
		cfg := core.DefaultConfig()
		cfg.Epoch = epoch
		spec := qos.MP3Stream()
		burstKB := spec.BytesPerSecond() * epoch.Seconds() / 1024
		bufferKB := float64(spec.BytesPerSecond() * (epoch.Seconds() + cfg.MarginSeconds) / 1024)
		// Client buffer capacity scales with the burst size (the sweep's
		// real cost axis): twice the standing target.
		h := core.NewHotspot(seed, cfg, 0)
		for i := 0; i < 3; i++ {
			cs := core.DefaultClientSpec(i)
			cs.Stream.CapacityBytes = int(2 * bufferKB * 1024)
			h.RM().Admit(cs)
		}
		rep := h.Run(4 * sim.Minute)
		t.AddRow(fmt.Sprintf("%.0f", epoch.Seconds()),
			fmt.Sprintf("%.0f", burstKB),
			fmt.Sprintf("%.4f", rep.MeanPowerW),
			fmt.Sprintf("%.0f", bufferKB),
			fmt.Sprintf("%d", rep.TotalUnderruns))
		vals[fmt.Sprintf("power-%.0fs", epoch.Seconds())] = rep.MeanPowerW
	}
	t.AddNote("larger bursts → longer deep-sleep stretches → lower power, but linearly more client buffering")
	return Result{Name: "e14-burst-size", Table: t.String(), Values: vals}
}

// E15InterfaceSwitch scripts the paper's link episode as a HotspotRun:
// WLAN dies mid-run, the fleet falls back to Bluetooth, then returns when
// WLAN recovers, and QoS holds throughout.
func E15InterfaceSwitch(seed int64) Result {
	h, rep := e15Run.Run(seed)
	n := switches(h)
	t := stats.NewTable("E15 — seamless interface switching (WLAN outage 40-80 s)",
		"metric", "value")
	t.AddRow("interface switches (total)", fmt.Sprintf("%d", n))
	t.AddRow("reactive recoveries", fmt.Sprintf("%d", rep.Recoveries))
	t.AddRow("urgent top-ups", fmt.Sprintf("%d", h.RM().Urgents()))
	t.AddRow("underruns", fmt.Sprintf("%d", rep.TotalUnderruns))
	t.AddRow("mean power (W)", fmt.Sprintf("%.4f", rep.MeanPowerW))
	t.AddNote("paper: 'as conditions in the link change, it seamlessly switches communication over' — QoS holds across both handoffs")
	return Result{Name: "e15-interface-switch", Table: t.String(), Values: map[string]float64{
		"switches": float64(n), "underruns": float64(rep.TotalUnderruns),
		"meanW": rep.MeanPowerW,
	}}
}

// AblationInterfaceSelection removes dynamic interface selection: clients
// pinned to WLAN ride out a WLAN fade with inflated (capped) retransmission
// energy and QoS damage, while the adaptive policy sidesteps it via BT.
func AblationInterfaceSelection(seed int64) Result {
	run := HotspotRun{Clients: 3, Scheduler: "edf", Policy: "adaptive",
		Epoch: 10, Duration: 120, OutageAt: 30, OutageLen: 40}
	_, adaptive := run.Run(seed)
	run.Policy = "wlan"
	_, pinned := run.Run(seed)
	t := stats.NewTable("Ablation — interface selection during a WLAN outage (30-70 s)",
		"policy", "underruns", "stall (s)", "mean W")
	t.AddRow("adaptive (paper)", fmt.Sprintf("%d", adaptive.TotalUnderruns),
		fmt.Sprintf("%.1f", adaptive.TotalStall.Seconds()), fmt.Sprintf("%.4f", adaptive.MeanPowerW))
	t.AddRow("pinned WLAN", fmt.Sprintf("%d", pinned.TotalUnderruns),
		fmt.Sprintf("%.1f", pinned.TotalStall.Seconds()), fmt.Sprintf("%.4f", pinned.MeanPowerW))
	return Result{Name: "ablation-iface-selection", Table: t.String(), Values: map[string]float64{
		"adaptiveUnder": float64(adaptive.TotalUnderruns),
		"pinnedUnder":   float64(pinned.TotalUnderruns),
		"pinnedStall":   pinned.TotalStall.Seconds(),
	}}
}

// AblationMargin shrinks the standing buffer margin below the watchdog's
// guard band: scheduled delivery degenerates into a stream of emergency
// top-up bursts (and, without them, into underruns) — the margin is what
// lets delivery stay on the planned burst schedule.
func AblationMargin(seed int64) Result {
	run := func(margin float64) (core.Report, int) {
		cfg := core.DefaultConfig()
		cfg.MarginSeconds = margin
		h := core.NewHotspot(seed, cfg, 3)
		h.Sim().Schedule(40*sim.Second, func() { h.Channel(core.WLAN).ForceState(channel.Bad) })
		rep := h.Run(100 * sim.Second)
		return rep, h.RM().Urgents()
	}
	wide, wideUrg := run(8)
	thin, thinUrg := run(1)
	t := stats.NewTable("Ablation — buffer margin vs switch transient (WLAN outage at 40 s)",
		"margin (s)", "underruns", "stall (s)", "urgent bursts")
	t.AddRow("8 (default)", fmt.Sprintf("%d", wide.TotalUnderruns),
		fmt.Sprintf("%.1f", wide.TotalStall.Seconds()), fmt.Sprintf("%d", wideUrg))
	t.AddRow("1", fmt.Sprintf("%d", thin.TotalUnderruns),
		fmt.Sprintf("%.1f", thin.TotalStall.Seconds()), fmt.Sprintf("%d", thinUrg))
	t.AddNote("a thin margin survives only by constant emergency bursts; the sized margin keeps delivery on schedule")
	return Result{Name: "ablation-margin", Table: t.String(), Values: map[string]float64{
		"wideUnder": float64(wide.TotalUnderruns), "thinUnder": float64(thin.TotalUnderruns),
		"wideUrgents": float64(wideUrg), "thinUrgents": float64(thinUrg),
	}}
}

// AblationBurstAggregation compares the default 10 s epochs against
// near-continuous 1 s epochs: scheduling without large bursts loses most of
// the saving to wake overheads.
func AblationBurstAggregation(seed int64) Result {
	run := HotspotRun{Clients: 3, Scheduler: "edf", Policy: "adaptive", Epoch: 10, Duration: 120}
	_, big := run.Run(seed)
	run.Epoch = 1
	_, small := run.Run(seed)
	t := stats.NewTable("Ablation — burst aggregation", "epoch", "mean W", "underruns")
	t.AddRow("10 s (paper-scale bursts)", fmt.Sprintf("%.4f", big.MeanPowerW), fmt.Sprintf("%d", big.TotalUnderruns))
	t.AddRow("1 s (small bursts)", fmt.Sprintf("%.4f", small.MeanPowerW), fmt.Sprintf("%d", small.TotalUnderruns))
	t.AddNote("paper: 'larger data burst sizes mean that clients can have longer periods of sleep time'")
	return Result{Name: "ablation-burst-aggregation", Table: t.String(), Values: map[string]float64{
		"bigW": big.MeanPowerW, "smallW": small.MeanPowerW,
	}}
}
