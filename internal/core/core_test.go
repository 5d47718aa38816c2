package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.StartOffset = bad.Epoch
	if err := bad.Validate(); err == nil {
		t.Error("offset >= epoch accepted")
	}
	bad2 := DefaultConfig()
	bad2.Scheduler = nil
	if err := bad2.Validate(); err == nil {
		t.Error("nil scheduler accepted")
	}
}

// TestConfigValidateRejectsEveryBadField covers one bad field per case.
// Before these checks a NaN inflation cap let a Hotspot run with a dead
// Bluetooth link recurse until the stack overflowed; every case must now
// fail in Validate, and NewHotspot must panic with that same error before
// anything is scheduled.
func TestConfigValidateRejectsEveryBadField(t *testing.T) {
	cases := []struct {
		name string
		bad  func(*Config)
	}{
		{"InflationCap NaN", func(c *Config) { c.InflationCap = math.NaN() }},
		{"InflationCap +Inf", func(c *Config) { c.InflationCap = math.Inf(1) }},
		{"InflationCap below 1", func(c *Config) { c.InflationCap = 0.5 }},
		{"RecoveryFraction NaN", func(c *Config) { c.RecoveryFraction = math.NaN() }},
		{"RecoveryFraction above 1", func(c *Config) { c.RecoveryFraction = 1.5 }},
		{"BTLoadFraction NaN", func(c *Config) { c.BTLoadFraction = math.NaN() }},
		{"BTLoadFraction zero", func(c *Config) { c.BTLoadFraction = 0 }},
		{"MarginSeconds NaN", func(c *Config) { c.MarginSeconds = math.NaN() }},
		{"MarginSeconds negative", func(c *Config) { c.MarginSeconds = -1 }},
		{"MarginSeconds +Inf", func(c *Config) { c.MarginSeconds = math.Inf(1) }},
		{"ChunkBytes zero", func(c *Config) { c.ChunkBytes = 0 }},
		{"ChunkBytes negative", func(c *Config) { c.ChunkBytes = -1460 }},
		{"Guard negative", func(c *Config) { c.Guard = -sim.Millisecond }},
		{"Scheduler nil", func(c *Config) { c.Scheduler = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.bad(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.HasPrefix(err.Error(), "core: ") {
				t.Fatalf("Validate = %v, want a core: error", err)
			}
			defer func() {
				if e, ok := recover().(error); !ok || e.Error() != err.Error() {
					t.Errorf("NewHotspot panicked with %v, want %v", e, err)
				}
			}()
			NewHotspot(1, cfg, 3)
		})
	}
	// A client whose stream rate is not finite is rejected at admission.
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		spec := DefaultClientSpec(0)
		spec.Stream.RateBps = rate
		if err := spec.Validate(); err == nil {
			t.Errorf("client spec with rate %g accepted", rate)
		}
	}
}

func TestIfaceAndPolicyNames(t *testing.T) {
	if WLAN.String() != "wlan" || BT.String() != "bluetooth" {
		t.Error("iface names wrong")
	}
	for _, p := range []IfacePolicy{PolicyAdaptive, PolicyWLANOnly, PolicyBTOnly} {
		if p.String() == "" {
			t.Error("policy name missing")
		}
	}
}

func TestClientSpecValidate(t *testing.T) {
	ok := DefaultClientSpec(0)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultClientSpec(1)
	bad.HasWLAN, bad.HasBT = false, false
	if err := bad.Validate(); err == nil {
		t.Error("interface-less client accepted")
	}
}

func TestHotspotMaintainsQoS(t *testing.T) {
	h := NewHotspot(1, DefaultConfig(), 3)
	rep := h.Run(2 * sim.Minute)
	if !rep.QoSMaintained() {
		t.Errorf("underruns = %d; scheduled delivery must not stall playback", rep.TotalUnderruns)
	}
	for _, c := range rep.Clients {
		// 2 minutes at 16 KB/s ≈ 1.9 MB per client, ± one burst.
		if c.BytesReceived < 1_600_000 {
			t.Errorf("client %d received only %d bytes", c.ID, c.BytesReceived)
		}
	}
}

func TestHotspotPowerIsDeepSleepDominated(t *testing.T) {
	h := NewHotspot(2, DefaultConfig(), 3)
	rep := h.Run(2 * sim.Minute)
	// Expected floor: BT park 12 mW + WLAN off 0 mW + burst contributions.
	if rep.MeanPowerW > 0.08 {
		t.Errorf("hotspot mean power = %.4f W, want < 0.08 W", rep.MeanPowerW)
	}
	if rep.MeanPowerW < 0.012 {
		t.Errorf("hotspot mean power = %.4f W below the BT park floor — accounting broken", rep.MeanPowerW)
	}
}

func TestUnscheduledBaselines(t *testing.T) {
	wlan := RunUnscheduled(3, WLAN, 3, sim.Minute)
	bt := RunUnscheduled(3, BT, 3, sim.Minute)
	// Calibration: WLAN ≈ 1.36 W (idle-dominated), BT ≈ 0.40 W.
	if wlan.MeanPowerW < 1.30 || wlan.MeanPowerW > 1.45 {
		t.Errorf("WLAN baseline = %.3f W, want ≈ 1.36", wlan.MeanPowerW)
	}
	if bt.MeanPowerW < 0.38 || bt.MeanPowerW > 0.50 {
		t.Errorf("BT baseline = %.3f W, want ≈ 0.40", bt.MeanPowerW)
	}
	if wlan.TotalUnderruns != 0 || bt.TotalUnderruns != 0 {
		t.Error("baselines should not stall")
	}
}

func TestFigure2ShapeAndSaving(t *testing.T) {
	rows, saving := Figure2(4, 3, 5*sim.Minute)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	wlan, bt, hs := rows[0], rows[1], rows[2]
	// The paper's ordering: WLAN ≫ Bluetooth ≫ Hotspot scheduling.
	if !(wlan.MeanW > bt.MeanW && bt.MeanW > hs.MeanW) {
		t.Errorf("bar ordering broken: %.3f / %.3f / %.3f", wlan.MeanW, bt.MeanW, hs.MeanW)
	}
	// Headline claim: ≈ 97% WNIC power saving. Our calibration lands a
	// couple of points shy (the paper's exact radios are unavailable); the
	// reproduction band accepts ≥ 92%.
	if saving < 0.92 || saving > 0.995 {
		t.Errorf("saving = %.3f, want ≈ 0.97 (accept ≥ 0.92)", saving)
	}
	if hs.Underruns != 0 {
		t.Error("QoS not maintained in scheduled run")
	}
}

func TestSlotsDoNotOverlapPerIface(t *testing.T) {
	h := NewHotspot(5, DefaultConfig(), 3)
	rep := h.Run(sim.Minute)
	byIface := map[Iface][]Slot{}
	for _, s := range rep.Slots {
		byIface[s.Iface] = append(byIface[s.Iface], s)
	}
	for iface, slots := range byIface {
		for i := 1; i < len(slots); i++ {
			if slots[i].Start < slots[i-1].End {
				t.Errorf("%v slots overlap: %v then %v", iface, slots[i-1], slots[i])
			}
		}
	}
	if len(rep.Slots) == 0 {
		t.Fatal("no slots scheduled")
	}
}

func TestBurstSizesAreTensOfKBytes(t *testing.T) {
	// The paper: "larger bursts of data (10s of Kbytes at a time)". Our
	// initial bursts also prefill the switch-transient margin, so they run
	// from ~160 KB (steady refill) up to ~430 KB (admission prefill).
	h := NewHotspot(6, DefaultConfig(), 3)
	rep := h.Run(sim.Minute)
	for _, s := range rep.Slots[:3] {
		if s.Bytes < 100_000 || s.Bytes > 450_000 {
			t.Errorf("burst = %d bytes, want 100-450 KB (epoch of media + margin)", s.Bytes)
		}
	}
	// Steady-state bursts settle near one epoch of media (~160-230 KB).
	last := rep.Slots[len(rep.Slots)-1]
	if last.Bytes < 120_000 || last.Bytes > 260_000 {
		t.Errorf("steady burst = %d bytes, want ≈160-230 KB", last.Bytes)
	}
}

func TestAdaptiveStartsOnBluetooth(t *testing.T) {
	h := NewHotspot(7, DefaultConfig(), 3)
	h.RM().Start()
	h.Sim().RunUntil(5 * sim.Second)
	for _, c := range h.RM().Clients() {
		if c.Assigned() != BT {
			t.Errorf("client %d on %v, want bluetooth initially", c.ID(), c.Assigned())
		}
	}
}

func TestSeamlessSwitchToWLANOnBTDegradation(t *testing.T) {
	// The paper's scenario: conditions on the BT link change; the server
	// seamlessly moves clients to WLAN; QoS is maintained throughout.
	h := NewHotspot(8, DefaultConfig(), 3)
	h.Sim().Schedule(35*sim.Second, func() {
		h.Channel(BT).ForceState(channel.Bad)
	})
	rep := h.Run(2 * sim.Minute)
	switched := 0
	for _, c := range h.RM().Clients() {
		if c.Assigned() == WLAN {
			switched++
		}
	}
	if switched != 3 {
		t.Errorf("%d of 3 clients on WLAN after BT fade", switched)
	}
	if !rep.QoSMaintained() {
		t.Errorf("underruns = %d during handoff; switch was not seamless", rep.TotalUnderruns)
	}
}

func TestFallbackToBTWhenWLANDies(t *testing.T) {
	// Steady state serves bursts over WLAN (energy-optimal). If the WLAN
	// link goes bad, clients must fall back to Bluetooth, and return once
	// WLAN recovers.
	h := NewHotspot(9, DefaultConfig(), 2)
	h.Sim().Schedule(25*sim.Second, func() { h.Channel(WLAN).ForceState(channel.Bad) })
	h.Sim().Schedule(32*sim.Second, func() {
		for _, c := range h.RM().Clients() {
			if c.Assigned() != BT {
				t.Errorf("client %d on %v at 32s, want bluetooth fallback", c.ID(), c.Assigned())
			}
		}
	})
	h.Sim().Schedule(65*sim.Second, func() { h.Channel(WLAN).ForceState(channel.Good) })
	rep := h.Run(3 * sim.Minute)
	for _, c := range h.RM().Clients() {
		if c.Assigned() != WLAN {
			t.Errorf("client %d on %v at end, want WLAN after recovery", c.ID(), c.Assigned())
		}
		if c.Switches() < 3 {
			t.Errorf("client %d switched %d times, want ≥ 3 (to WLAN, to BT, back)", c.ID(), c.Switches())
		}
	}
	if !rep.QoSMaintained() {
		t.Errorf("underruns = %d across WLAN outage", rep.TotalUnderruns)
	}
}

func TestWLANOnlyPolicy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyWLANOnly
	h := NewHotspot(10, cfg, 2)
	rep := h.Run(sim.Minute)
	for _, s := range rep.Slots {
		if s.Iface != WLAN {
			t.Errorf("slot on %v under wlan-only policy", s.Iface)
		}
	}
	// WLAN-off between bursts still beats CAM by orders of magnitude.
	if rep.MeanPowerW > 0.1 {
		t.Errorf("scheduled WLAN-only power %.4f W too high", rep.MeanPowerW)
	}
}

func TestBTOverloadSpillsToWLAN(t *testing.T) {
	// Enough clients to exceed the BT budget (560 kb/s × 0.85 ≈ 59 KB/s;
	// each MP3 client needs 16 KB/s, so at most 3 fit).
	h := NewHotspot(11, DefaultConfig(), 6)
	h.RM().Start()
	h.Sim().RunUntil(5 * sim.Second)
	bt, wlan := 0, 0
	for _, c := range h.RM().Clients() {
		switch c.Assigned() {
		case BT:
			bt++
		case WLAN:
			wlan++
		}
	}
	if bt == 0 || wlan == 0 {
		t.Errorf("bt=%d wlan=%d, want load split across interfaces", bt, wlan)
	}
	if bt > 3 {
		t.Errorf("bt=%d clients exceed the Bluetooth capacity budget", bt)
	}
}

func TestSchedulersProduceEquivalentQoSUnderLightLoad(t *testing.T) {
	for _, sched := range []Scheduler{EDF{}, NewWFQ(), RoundRobin{}} {
		cfg := DefaultConfig()
		cfg.Scheduler = sched
		h := NewHotspot(12, cfg, 3)
		rep := h.Run(sim.Minute)
		if !rep.QoSMaintained() {
			t.Errorf("%s: underruns under light load", sched.Name())
		}
	}
}

func TestReportString(t *testing.T) {
	h := NewHotspot(13, DefaultConfig(), 2)
	rep := h.Run(30 * sim.Second)
	out := rep.String()
	if out == "" {
		t.Error("empty report rendering")
	}
}

func TestRecoveryCountsOnMidEpochFade(t *testing.T) {
	h := NewHotspot(14, DefaultConfig(), 3)
	// Steady-state bursts ride WLAN (energy-optimal). Kill WLAN after the
	// epoch-1 schedule is built but before its slots execute: the scheduled
	// WLAN bursts fail and recovery bursts must fire on Bluetooth.
	h.Sim().Schedule(10*sim.Second+100*sim.Millisecond, func() {
		h.Channel(WLAN).ForceState(channel.Bad)
	})
	h.Sim().Schedule(25*sim.Second, func() {
		h.Channel(WLAN).ForceState(channel.Good)
	})
	rep := h.Run(40 * sim.Second)
	if rep.Recoveries == 0 {
		t.Error("no recovery bursts despite mid-epoch WLAN failure")
	}
	if !rep.QoSMaintained() {
		t.Errorf("underruns = %d; recovery should preserve QoS", rep.TotalUnderruns)
	}
}
