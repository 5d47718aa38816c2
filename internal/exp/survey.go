package exp

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/link"
	"repro/internal/mac/aggregate"
	"repro/internal/mac/dcf"
	"repro/internal/mac/ecmac"
	"repro/internal/mac/pamas"
	"repro/internal/mac/psm"
	"repro/internal/power"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// surveyCatalogue lists this file's experiments: the Section 1 survey
// claims about MAC, link and OS-level power management.
func surveyCatalogue() []scenario.Spec {
	return []scenario.Spec{
		{Name: "e3", Desc: "E3: unmanaged WLAN listens ~90% of the time",
			Tags: []string{"survey", "mac"}, Run: E3ListenFraction},
		{Name: "e4", Desc: "E4: 802.11 PSM vs CAM across loads",
			Tags: []string{"survey", "mac"}, Run: E4PSMvsCAM},
		{Name: "e5", Desc: "E5: CAM vs PSM vs EC-MAC",
			Tags: []string{"survey", "mac"}, Run: E5MACComparison},
		{Name: "e6", Desc: "E6: MAC-layer aggregation sweep",
			Tags: []string{"survey", "mac"}, Run: E6Aggregation},
		{Name: "e7", Desc: "E7: PAMAS overhearing avoidance + battery sleep",
			Tags: []string{"survey", "mac"}, Run: E7PAMAS},
		{Name: "e8", Desc: "E8: ARQ vs FEC energy crossover",
			Tags: []string{"survey", "link"}, Run: E8ARQvsFEC},
		{Name: "e9", Desc: "E9: adaptive ARQ with channel prediction",
			Tags: []string{"survey", "link"}, Run: E9AdaptiveARQ},
		{Name: "e11", Desc: "E11: OS-level DPM policies",
			Tags: []string{"survey", "os"}, Run: E11DPM},
		{Name: "e12", Desc: "E12: proxy content adaptation",
			Tags: []string{"survey", "app"}, Run: E12ProxyAdaptation},
	}
}

// E3ListenFraction verifies the paper's motivating claim: "WLANs spend as
// much as 90% of their time listening", so transmit-power control alone
// cannot save much.
func E3ListenFraction(seed int64) Result {
	meter := runUplinkStation(seed, 60*sim.Second)
	idle := meter.StateFraction(radio.Idle)
	rx := meter.StateFraction(radio.RX)
	tx := meter.StateFraction(radio.TX)
	idleEnergy := meter.StateEnergy(radio.Idle) / meter.TotalEnergy()

	t := stats.NewTable("E3 — unmanaged WLAN station time/energy budget (60 s, 10 pkt/s uplink)",
		"state", "time share", "energy share")
	t.AddRow("idle (listening)", fmt.Sprintf("%.1f%%", idle*100), fmt.Sprintf("%.1f%%", idleEnergy*100))
	t.AddRow("rx", fmt.Sprintf("%.1f%%", rx*100), "-")
	t.AddRow("tx", fmt.Sprintf("%.1f%%", tx*100), "-")
	t.AddNote("paper claim: WLANs listen up to ~90%% of the time; measured %.1f%%", idle*100)
	return Result{Name: "e3-listen-fraction", Table: t.String(), Values: map[string]float64{
		"idleFraction": idle, "idleEnergyShare": idleEnergy,
	}}
}

// runUplinkStation runs e3's unmanaged station for dur: one always-awake
// DCF station sending an interactive-style load of ~10 uplink frames/s of
// 1 KB to its AP. It returns the station radio's meter.
func runUplinkStation(seed int64, dur sim.Time) *radio.Meter {
	s := sim.New(seed)
	m := dcf.NewMedium(s, dcf.Default80211b(), nil)
	dcf.NewStation(frame.AP, m, radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle))
	sta := dcf.NewStation(0, m, radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle))
	seq := 0
	sim.NewTicker(s, 100*sim.Millisecond, func() {
		seq++
		sta.Enqueue(frame.NewData(0, frame.AP, seq, 1000))
	})
	s.RunUntil(dur)
	return sta.Device().Meter()
}

// E4PSMvsCAM compares 802.11 power-save mode to continuously-active mode
// across offered loads and beacon intervals.
func E4PSMvsCAM(seed int64) Result {
	t := stats.NewTable("E4 — 802.11 PSM vs CAM (client avg power, W)",
		"load (pkt/s)", "CAM", "PSM bi=100ms", "PSM bi=300ms", "saving @100ms")
	vals := map[string]float64{}
	bi100, bi300 := psm.DefaultConfig(), psm.DefaultConfig()
	bi300.BeaconInterval = 300 * sim.Millisecond
	for _, load := range []float64{0.5, 2, 8} {
		every := sim.FromSeconds(1 / load)
		cam, _, _ := runDCFDownlink(seed, 1, 1000, every, 0, 40*sim.Second, nil)
		psm100, _, _ := runDCFDownlink(seed, 1, 1000, every, 0, 40*sim.Second, &bi100)
		psm300, _, _ := runDCFDownlink(seed, 1, 1000, every, 0, 40*sim.Second, &bi300)
		saving := 1 - psm100/cam
		t.AddRow(fmt.Sprintf("%.1f", load),
			fmt.Sprintf("%.3f", cam), fmt.Sprintf("%.3f", psm100),
			fmt.Sprintf("%.3f", psm300), fmt.Sprintf("%.0f%%", saving*100))
		vals[fmt.Sprintf("cam-%.1f", load)] = cam
		vals[fmt.Sprintf("psm100-%.1f", load)] = psm100
	}
	t.AddNote("doze between beacons makes PSM's draw nearly load-proportional; CAM pays ~1.35 W regardless")
	return Result{Name: "e4-psm-vs-cam", Table: t.String(), Values: vals}
}

// E5MACComparison pits CAM, 802.11 PSM and EC-MAC against the same downlink
// load: EC-MAC's broadcast schedule eliminates contention and gives exact
// doze windows.
func E5MACComparison(seed int64) Result {
	const nSta = 4
	const dur = 30 * sim.Second
	loadBytes, loadEvery := 2000, 125*sim.Millisecond // 16 KB/s per station
	const uplink = 250 * sim.Millisecond

	def := psm.DefaultConfig()
	camW, camColl, _ := runDCFDownlink(seed, nSta, loadBytes, loadEvery, uplink, dur, nil)
	psmW, psmColl, _ := runDCFDownlink(seed, nSta, loadBytes, loadEvery, uplink, dur, &def)
	ecW, _ := runECMACDownlink(seed, nSta, loadBytes, loadEvery, dur)

	t := stats.NewTable("E5 — MAC protocol comparison (4 stations, 16 KB/s each downlink)",
		"protocol", "client avg W", "collisions", "property")
	t.AddRow("CAM (DCF)", fmt.Sprintf("%.3f", camW), fmt.Sprintf("%d", camColl), "always listening")
	t.AddRow("802.11 PSM", fmt.Sprintf("%.3f", psmW), fmt.Sprintf("%d", psmColl), "TIM-triggered doze")
	t.AddRow("EC-MAC", fmt.Sprintf("%.3f", ecW), "0", "scheduled: exact doze windows")
	t.AddNote("EC-MAC is collision-free by construction; PSM still contends for PS-Polls")
	return Result{Name: "e5-mac-comparison", Table: t.String(), Values: map[string]float64{
		"camW": camW, "psmW": psmW, "ecmacW": ecW,
		"camCollisions": float64(camColl), "psmCollisions": float64(psmColl),
	}}
}

// runECMACDownlink is the EC-MAC leg of e5 and of MACLoad: n stations each
// receiving bytes of downlink every period, for dur. It returns the
// stations' mean power and the packets the network delivered.
func runECMACDownlink(seed int64, n int, bytes int, every, dur sim.Time) (float64, int) {
	s := sim.New(seed)
	bs := radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
	net := ecmac.NewNetwork(s, ecmac.DefaultConfig(), bs)
	for i := 0; i < n; i++ {
		net.Register(i, radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle))
	}
	net.Start()
	sim.NewTicker(s, every, func() {
		for i := 0; i < n; i++ {
			net.Deliver(i, bytes)
		}
	})
	s.RunUntil(dur)
	var w float64
	for i := 0; i < n; i++ {
		w += net.StationEnergy(i)
	}
	return w / float64(n), net.Stats().PacketsDeliv
}

// runDCFDownlink is the DCF leg of e4, e5 and MACLoad: an AP delivering
// bytes to each of n stations every period for dur, plus, when uplink is
// positive, a 200 B status report from every station each uplink period.
// The stations stay awake (CAM) when ps is nil; otherwise they are 802.11
// PSM clients, and the AP runs *ps. It returns the stations' mean power,
// the medium's collision count and the data frames the stations received.
func runDCFDownlink(seed int64, n int, bytes int, every, uplink, dur sim.Time, ps *psm.Config) (float64, int, int) {
	cfg := psm.DefaultConfig()
	if ps != nil {
		cfg = *ps
	}
	s := sim.New(seed)
	m := dcf.NewMedium(s, dcf.Default80211b(), nil)
	apDev := radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
	ap := psm.NewAP(s, m, apDev, cfg)
	devs := make([]*radio.Device, n)
	stations := make([]*dcf.Station, n)
	delivered := 0
	count := func(f *frame.Frame) {
		if f.Kind == frame.Data {
			delivered++
		}
	}
	for i := 0; i < n; i++ {
		devs[i] = radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
		if ps != nil {
			cl := psm.NewClient(s, m, devs[i], ap, i, cfg)
			cl.OnData = count
			stations[i] = cl.Station()
		} else {
			stations[i] = dcf.NewStation(i, m, devs[i])
			stations[i].OnReceive = count
		}
	}
	sim.NewTicker(s, every, func() {
		for i := 0; i < n; i++ {
			ap.Deliver(i, bytes)
		}
	})
	if uplink > 0 {
		// Uplink status reports create genuine contention: stations that
		// wake at the same instant draw backoffs from the same window and
		// sometimes pick the same slot.
		seq := 0
		sim.NewTicker(s, uplink, func() {
			seq++
			for i := 0; i < n; i++ {
				stations[i].Enqueue(frame.NewData(i, frame.AP, seq, 200))
			}
		})
	}
	s.RunUntil(dur)
	var w float64
	for _, d := range devs {
		w += d.Meter().AveragePower()
	}
	return w / float64(n), m.Stats().Collisions, delivered
}

// E6Aggregation sweeps the MAC aggregation factor: energy per bit falls and
// doze fraction rises as per-frame overheads amortize; delay is the price.
func E6Aggregation(seed int64) Result {
	factors := []int{1, 2, 4, 8, 16}
	results := aggregate.Sweep(seed, factors, 60*sim.Second)
	t := stats.NewTable("E6 — MAC-layer aggregation (320 B packets every 20 ms)",
		"factor", "energy/bit (uJ)", "mean delay (ms)", "sleep %", "avg W")
	vals := map[string]float64{}
	for _, r := range results {
		t.AddRow(fmt.Sprintf("%d", r.Factor),
			fmt.Sprintf("%.2f", r.EnergyPerBitJ*1e6),
			fmt.Sprintf("%.1f", r.MeanDelay.Milliseconds()),
			fmt.Sprintf("%.1f", r.SleepFraction*100),
			fmt.Sprintf("%.3f", r.AvgPowerW))
		vals[fmt.Sprintf("epb-%d", r.Factor)] = r.EnergyPerBitJ
		vals[fmt.Sprintf("delay-%d", r.Factor)] = r.MeanDelay.Seconds()
	}
	t.AddNote("paper: 'longer mobile sleep periods can be created by aggregating MAC layer packets'")
	return Result{Name: "e6-aggregation", Table: t.String(), Values: vals}
}

// E7PAMAS compares always-listening CSMA against PAMAS overhearing
// avoidance and battery-level-driven sleep, measuring bystander energy and
// network lifetime.
func E7PAMAS(seed int64) Result {
	t := stats.NewTable("E7 — PAMAS power-aware MAC (6 nodes, random flows)",
		"mode", "first death (s)", "alive @160s", "delivered pkts", "pkts/J")
	vals := map[string]float64{}
	for _, mode := range []pamas.Mode{pamas.AlwaysListen, pamas.Pamas, pamas.PamasBattery} {
		s := sim.New(seed)
		cfg := pamas.DefaultConfig(mode)
		cfg.BatteryCapacity = 120
		n := pamas.NewNetwork(s, cfg, 6)
		sim.NewTicker(s, 1500*sim.Millisecond, func() {
			src := s.Rand().Intn(6)
			dst := (src + 1 + s.Rand().Intn(5)) % 6
			n.Send(src, dst, 30000)
		})
		alive160 := 0
		s.At(160*sim.Second, func() { alive160 = n.NumAlive() })
		s.RunUntil(400 * sim.Second)
		pkts, _ := n.Delivered()
		death := n.FirstDeath()
		deathS := death.Seconds()
		if death == sim.MaxTime {
			deathS = -1
		}
		perJ := float64(pkts) / (6 * cfg.BatteryCapacity)
		t.AddRow(mode.String(), fmt.Sprintf("%.0f", deathS),
			fmt.Sprintf("%d", alive160), fmt.Sprintf("%d", pkts),
			fmt.Sprintf("%.3f", perJ))
		vals["death-"+mode.String()] = deathS
		vals["pkts-"+mode.String()] = float64(pkts)
		vals["alive-"+mode.String()] = float64(alive160)
	}
	t.AddNote("paper: 'with PAMAS nodes independently enter sleep state based on their battery levels'")
	return Result{Name: "e7-pamas", Table: t.String(), Values: vals}
}

// E8ARQvsFEC sweeps channel BER and reports energy per delivered bit for
// plain ARQ, FEC-only, and hybrid ARQ+FEC — the link-layer trade-off the
// paper describes ("trading off retransmissions with ARQ against longer
// packet sizes due to FEC").
func E8ARQvsFEC(seed int64) Result {
	bers := []float64{1e-7, 1e-6, 1e-5, 4e-5, 1e-4}
	t := stats.NewTable("E8 — energy per delivered bit (uJ) vs channel BER",
		"BER", "ARQ only", "FEC only", "hybrid", "winner")
	vals := map[string]float64{}
	for _, ber := range bers {
		arq := e8transfer(seed, ber, link.SelectiveRepeat, link.NoCode(1400))
		fec := e8transfer(seed, ber, link.NoARQ, link.NewBCHLike(1400, 24))
		hyb := e8transfer(seed, ber, link.SelectiveRepeat, link.NewBCHLike(1400, 12))
		winner := "ARQ"
		best := arq
		if fec < best {
			best, winner = fec, "FEC"
		}
		if hyb < best {
			winner = "hybrid"
		}
		t.AddRow(fmt.Sprintf("%.0e", ber),
			fmt.Sprintf("%.3f", arq*1e6), fmt.Sprintf("%.3f", fec*1e6),
			fmt.Sprintf("%.3f", hyb*1e6), winner)
		vals[fmt.Sprintf("arq-%.0e", ber)] = arq
		vals[fmt.Sprintf("hyb-%.0e", ber)] = hyb
	}
	t.AddNote("low BER: parity overhead is wasted → ARQ wins; high BER: retransmissions explode → FEC/hybrid wins")
	return Result{Name: "e8-arq-vs-fec", Table: t.String(), Values: vals}
}

func e8transfer(seed int64, ber float64, arq link.ARQKind, code link.Code) float64 {
	s := sim.New(seed)
	ch := channel.NewGilbertElliott(s, channel.GEParams{
		MeanGood: sim.Hour, MeanBad: sim.Second, BERGood: ber, BERBad: 0.5})
	ch.Freeze()
	p := link.DefaultParams()
	p.ARQ = arq
	p.PacketBytes = code.K
	p.Code = code
	r := link.Transfer(s, ch, p, 300)
	return r.EnergyPerBitJ
}

// E9AdaptiveARQ measures the prediction-accuracy / energy trade-off: static
// parameter sets vs predictor-driven adaptation vs the oracle bound.
func E9AdaptiveARQ(seed int64) Result {
	t := stats.NewTable("E9 — adaptive ARQ with channel prediction (bursty channel)",
		"policy", "accuracy", "pred. cost", "energy/bit (uJ)", "goodput (kb/s)")
	vals := map[string]float64{}
	run := func(name string, pred channel.Predictor, static *link.Params) {
		s := sim.New(seed)
		// Harsh fades (BER 5e-4 kills 1400-byte packets) on a channel with
		// ~75% good time: static-large burns energy in fades, static-robust
		// wastes parity in the clear — only adaptation gets both regimes.
		ch := channel.NewGilbertElliott(s, channel.GEParams{
			MeanGood: 2 * sim.Second, MeanBad: 700 * sim.Millisecond,
			BERGood: 1e-6, BERBad: 5e-4,
		})
		// 3000 packets ≈ 18 s of transfer: long enough to see many
		// good/bad transitions, which is where adaptation differentiates.
		cfg := link.DefaultAdaptiveConfig(3000)
		if static != nil {
			cfg.GoodParams = *static
			cfg.BadParams = *static
		}
		r := link.RunAdaptive(s, ch, pred, cfg)
		acc := "-"
		if static == nil {
			acc = fmt.Sprintf("%.2f", r.Accuracy)
		}
		t.AddRow(name, acc, fmt.Sprintf("%.0f", r.PredictionCost),
			fmt.Sprintf("%.3f", r.EnergyPerBitJ*1e6),
			fmt.Sprintf("%.0f", r.GoodputBps/1e3))
		vals["epb-"+name] = r.EnergyPerBitJ
		vals["acc-"+name] = r.Accuracy
	}
	big := link.DefaultParams()
	small := link.DefaultParams()
	small.PacketBytes = 300
	small.Code = link.NewBCHLike(300, 12)
	run("static-large", channel.NewLastState(), &big)
	run("static-robust", channel.NewLastState(), &small)
	run("adaptive/last-state", channel.NewLastState(), nil)
	run("adaptive/markov", channel.NewMarkov(), nil)
	run("adaptive/window-5", channel.NewWindow(5), nil)
	run("adaptive/oracle", channel.NewOracle(), nil)
	t.AddNote("paper: 'prediction of future channel conditions has a tradeoff on cost and accuracy versus the energy savings'")
	return Result{Name: "e9-adaptive-arq", Table: t.String(), Values: vals}
}

// E11DPM evaluates OS-level device power management policies on a bursty
// request trace.
func E11DPM(seed int64) Result {
	profile := radio.WLAN80211b()
	var trace []power.Request
	s0 := sim.New(seed)
	tgen := sim.Second
	for b := 0; b < 40; b++ {
		n := 3 + s0.Rand().Intn(10)
		for i := 0; i < n; i++ {
			trace = append(trace, power.Request{Arrival: tgen, Service: 2 * sim.Millisecond})
			tgen += sim.FromSeconds(0.004 + float64(s0.Rand().Float64()*0.05))
		}
		tgen += sim.FromSeconds(0.5 + float64(s0.Rand().ExpFloat64()*3))
	}
	policies := []power.Policy{
		power.AlwaysOn{},
		&power.FixedTimeout{Timeout: 50 * sim.Millisecond},
		&power.FixedTimeout{Timeout: sim.Second},
		power.NewAdaptiveTimeout(profile, 10*sim.Millisecond, sim.Second),
		power.NewPredictive(profile, 0.3),
		power.NewOracle(profile),
	}
	t := stats.NewTable("E11 — OS-level WNIC power management (bursty trace)",
		"policy", "energy (J)", "avg W", "mean delay (ms)", "sleeps")
	vals := map[string]float64{}
	for _, p := range policies {
		r := power.Run(sim.New(seed), profile, p, trace)
		t.AddRow(r.Policy, fmt.Sprintf("%.1f", r.EnergyJ), fmt.Sprintf("%.3f", r.AvgPowerW),
			fmt.Sprintf("%.2f", r.MeanDelay.Milliseconds()), fmt.Sprintf("%d", r.Sleeps))
		vals["energy-"+r.Policy] = r.EnergyJ
		vals["delay-"+r.Policy] = r.MeanDelay.Seconds()
	}
	t.AddNote("paper: OS-level decisions 'must rely on the quality of the predictive techniques'")
	return Result{Name: "e11-dpm", Table: t.String(), Values: vals}
}

// E12ProxyAdaptation shows the application-level proxy dropping the video
// layer in adverse conditions: the audio keeps flowing and the client radio
// saves the video's receive energy.
func E12ProxyAdaptation(seed int64) Result {
	run := func(adapt bool) (audio, video int, energy float64) {
		s := sim.New(seed)
		ch := channel.NewGilbertElliott(s, channel.GEParams{
			MeanGood: 4 * sim.Second, MeanBad: 2 * sim.Second,
			BERGood: 1e-7, BERBad: 1e-3,
		})
		mon := &channel.NewMonitors(s, ch)[0]
		dev := radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
		p := dev.Profile()
		// Chunks queue at the AP and are received back-to-back; the client
		// dozes whenever its queue is empty (power-save delivery), so every
		// byte the proxy drops converts directly into sleep time.
		var backlog []app.Chunk
		receiving := false
		var drain func()
		drain = func() {
			if receiving || dev.Transitioning() {
				return
			}
			if len(backlog) == 0 {
				if dev.State() == radio.Idle {
					dev.SetState(radio.Sleep, nil)
				}
				return
			}
			if dev.State() == radio.Sleep {
				dev.SetState(radio.Idle, func() { drain() })
				return
			}
			if dev.State() != radio.Idle {
				return
			}
			c := backlog[0]
			backlog = backlog[1:]
			receiving = true
			dev.OccupyFor(radio.RX, p.TxTime(c.Bytes+60), radio.Idle, func() {
				if c.Layer == 0 {
					audio += c.Bytes
				} else {
					video += c.Bytes
				}
				receiving = false
				drain()
			})
		}
		src := app.NewLayered(s, 128e3, 768e3)
		src.Start(func(c app.Chunk) {
			backlog = append(backlog, c)
			drain()
		})
		if adapt {
			adapter := channelAdapter{src: src, mon: mon}
			sim.NewTicker(s, 500*sim.Millisecond, adapter.tick)
		}
		s.RunUntil(60 * sim.Second)
		return audio, video, dev.Meter().TotalEnergy()
	}
	aFull, vFull, eFull := run(false)
	aAd, vAd, eAd := run(true)

	t := stats.NewTable("E12 — proxy content adaptation on a fading link (60 s)",
		"policy", "audio KB", "video KB", "client energy J")
	t.AddRow("full stream", fmt.Sprintf("%d", aFull/1024), fmt.Sprintf("%d", vFull/1024), fmt.Sprintf("%.1f", eFull))
	t.AddRow("adaptive (audio-only in fades)", fmt.Sprintf("%d", aAd/1024), fmt.Sprintf("%d", vAd/1024), fmt.Sprintf("%.1f", eAd))
	t.AddNote("paper: proxies 'dropping video content and delivering only audio in adverse conditions'")
	return Result{Name: "e12-proxy-adaptation", Table: t.String(), Values: map[string]float64{
		"audioFull": float64(aFull), "audioAdapt": float64(aAd),
		"videoFull": float64(vFull), "videoAdapt": float64(vAd),
		"energyFull": eFull, "energyAdapt": eAd,
	}}
}

// channelAdapter is the proxy's content adapter: it delivers the layered
// source's video layer only while the link is good, and audio alone in
// adverse conditions.
type channelAdapter struct {
	src *app.Layered
	mon *channel.Monitor
}

func (a channelAdapter) tick() {
	a.src.SetVideo(a.mon.Quality() == channel.QualityGood)
}
