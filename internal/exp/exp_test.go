package exp

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// These tests pin the qualitative shape of every reproduced experiment: who
// wins, in which regime, and by roughly what kind of factor. They are the
// executable form of EXPERIMENTS.md.

func TestFigure1ProducesSchedule(t *testing.T) {
	r := Figure1(1)
	if r.Values["slots"] < 6 {
		t.Errorf("only %v slots in 45s for 3 clients", r.Values["slots"])
	}
	if r.Values["underruns"] != 0 {
		t.Error("figure-1 scenario stalled")
	}
	for _, want := range []string{"Data transfer", "Power levels", "#", "_"} {
		if !strings.Contains(r.Table, want) {
			t.Errorf("figure missing %q", want)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	r := Figure2(2, 3*sim.Minute)
	if !(r.Values["wlanW"] > r.Values["btW"] && r.Values["btW"] > r.Values["hsW"]) {
		t.Errorf("ordering broken: %v", r.Values)
	}
	if r.Values["saving"] < 0.92 {
		t.Errorf("saving %.3f, want ≥ 0.92", r.Values["saving"])
	}
	if r.Values["underhs"] != 0 {
		t.Error("scheduled run stalled")
	}
}

func TestE3ListenDominates(t *testing.T) {
	r := E3ListenFraction(3)
	if r.Values["idleFraction"] < 0.85 {
		t.Errorf("idle fraction %.3f, want ≥ 0.85 (paper: ~90%%)", r.Values["idleFraction"])
	}
	if r.Values["idleEnergyShare"] < 0.8 {
		t.Errorf("idle energy share %.3f, want ≥ 0.8", r.Values["idleEnergyShare"])
	}
}

func TestE4PSMBeatsCAMAtLowLoad(t *testing.T) {
	r := E4PSMvsCAM(4)
	if r.Values["psm100-0.5"] > r.Values["cam-0.5"]/4 {
		t.Errorf("PSM %.3f W vs CAM %.3f W at 0.5 pkt/s: want ≥4x saving",
			r.Values["psm100-0.5"], r.Values["cam-0.5"])
	}
	// The PSM advantage shrinks as load rises.
	low := r.Values["cam-0.5"] - r.Values["psm100-0.5"]
	high := r.Values["cam-8.0"] - r.Values["psm100-8.0"]
	if high > low {
		t.Errorf("PSM saving should shrink with load: low %.3f, high %.3f", low, high)
	}
}

func TestE5ECMACLowestPowerNoCollisions(t *testing.T) {
	r := E5MACComparison(5)
	if r.Values["ecmacW"] >= r.Values["camW"] {
		t.Error("EC-MAC should beat CAM")
	}
	if r.Values["camCollisions"] == 0 {
		t.Error("CAM with 4 contending stations should collide sometimes")
	}
}

func TestE6AggregationMonotone(t *testing.T) {
	r := E6Aggregation(6)
	if !(r.Values["epb-16"] < r.Values["epb-4"] && r.Values["epb-4"] < r.Values["epb-1"]) {
		t.Errorf("energy/bit not falling with factor: %v", r.Values)
	}
	if !(r.Values["delay-16"] > r.Values["delay-1"]) {
		t.Error("delay should grow with factor")
	}
}

func TestE7PAMASExtendsLifetime(t *testing.T) {
	r := E7PAMAS(7)
	base := r.Values["death-always-listen"]
	pam := r.Values["death-pamas"]
	bat := r.Values["death-pamas+battery"]
	if base <= 0 {
		t.Fatal("baseline never died; capacity too large for horizon")
	}
	if pam <= base {
		t.Errorf("PAMAS first death %.0f should beat baseline %.0f", pam, base)
	}
	if bat != -1 && bat <= pam {
		t.Errorf("battery-aware first death %.0f should beat plain PAMAS %.0f", bat, pam)
	}
}

func TestE8CrossoverExists(t *testing.T) {
	r := E8ARQvsFEC(8)
	if !(r.Values["arq-1e-07"] < r.Values["hyb-1e-07"]) {
		t.Error("ARQ should win at BER 1e-7")
	}
	if !(r.Values["hyb-1e-04"] < r.Values["arq-1e-04"]) {
		t.Error("hybrid should win at BER 1e-4")
	}
}

func TestE9AdaptiveBeatsStaticLarge(t *testing.T) {
	r := E9AdaptiveARQ(9)
	if !(r.Values["epb-adaptive/last-state"] < r.Values["epb-static-large"]) {
		t.Error("adaptation should beat static-large on a bursty channel")
	}
	if r.Values["acc-adaptive/oracle"] != 1 {
		t.Error("oracle accuracy must be 1")
	}
	if r.Values["epb-adaptive/oracle"] > r.Values["epb-adaptive/last-state"]*1.1 {
		t.Error("oracle should bound realizable predictors")
	}
}

func TestE10SplitAndSnoopWinUnderLoss(t *testing.T) {
	r := E10SplitTCP(10)
	if !(r.Values["split-3e-06"] > r.Values["e2e-3e-06"]) {
		t.Error("split should beat end-to-end at high loss")
	}
	if !(r.Values["snoop-3e-06"] > r.Values["split-3e-06"]) {
		t.Error("snoop (loss fully hidden) should beat split at high loss")
	}
	// At negligible loss they are comparable (within 2x either way).
	ratio := r.Values["split-1e-08"] / r.Values["e2e-1e-08"]
	if ratio < 0.5 || ratio > 2.5 {
		t.Errorf("clean-path ratio %.2f out of band", ratio)
	}
}

func TestE16LifetimeOrdering(t *testing.T) {
	r := E16Routing(16)
	minHop := r.Values["death-min-hop"]
	minEnergy := r.Values["death-min-energy"]
	maxMin := r.Values["death-max-min-battery"]
	cond := r.Values["death-conditional"]
	if minEnergy > 0 && maxMin > 0 && maxMin <= minEnergy {
		t.Errorf("max-min first death %v should exceed min-energy %v", maxMin, minEnergy)
	}
	if cond > 0 && minHop > 0 && cond <= minHop {
		t.Errorf("conditional first death %v should exceed min-hop %v", cond, minHop)
	}
	// Min-energy remains the cheapest per delivered packet.
	if r.Values["mjpkt-min-energy"] > r.Values["mjpkt-max-min-battery"] {
		t.Error("min-energy should cost least per packet")
	}
}

func TestE17DVSSavesEnergyWithoutMisses(t *testing.T) {
	r := E17DVS(17)
	for _, u := range []string{"0.3", "0.5", "0.8"} {
		if r.Values["miss-"+u] != 0 {
			t.Errorf("deadline misses at utilization %s", u)
		}
		if r.Values["cc-"+u] > r.Values["no-"+u] {
			t.Errorf("cycle-conserving worse than no-DVS at %s", u)
		}
		if r.Values["cc-"+u] > r.Values["st-"+u] {
			t.Errorf("cycle-conserving worse than static at %s", u)
		}
	}
	// The cubic power law makes low-utilization savings large.
	if r.Values["cc-0.3"] > r.Values["no-0.3"]*0.6 {
		t.Error("CC-EDF should save ≥40% at 30% utilization")
	}
}

func TestE11OracleBoundsAndTimeoutsSave(t *testing.T) {
	r := E11DPM(11)
	on := r.Values["energy-always-on"]
	for _, k := range []string{"energy-timeout-50.000ms", "energy-adaptive-timeout",
		"energy-predictive", "energy-oracle"} {
		if r.Values[k] >= on {
			t.Errorf("%s (%.1f J) did not beat always-on (%.1f J)", k, r.Values[k], on)
		}
	}
	if r.Values["energy-oracle"] > r.Values["energy-adaptive-timeout"]*1.05 {
		t.Error("oracle should be at or below adaptive timeout")
	}
}

func TestE12AdaptationSavesEnergyKeepsAudio(t *testing.T) {
	r := E12ProxyAdaptation(12)
	if r.Values["energyAdapt"] >= r.Values["energyFull"] {
		t.Error("adaptation should cut client energy")
	}
	if r.Values["videoAdapt"] >= r.Values["videoFull"] {
		t.Error("adaptation should drop video bytes")
	}
	// Audio keeps flowing within 2% either way.
	ratio := r.Values["audioAdapt"] / r.Values["audioFull"]
	if ratio < 0.98 || ratio > 1.02 {
		t.Errorf("audio changed by ratio %.3f under adaptation", ratio)
	}
}

func TestE13EDFLeastStallWFQFairest(t *testing.T) {
	r := E13Schedulers(13)
	// EDF recovers the most urgent buffers first after the capacity
	// squeeze, cutting total stall well below the deadline-blind policies.
	if r.Values["stall-edf"] > r.Values["stall-round-robin"]*0.9 {
		t.Errorf("EDF stall %.1f should be well below round-robin %.1f",
			r.Values["stall-edf"], r.Values["stall-round-robin"])
	}
	if r.Values["fair-wfq"] < r.Values["fair-round-robin"]-0.005 {
		t.Errorf("WFQ fairness %.4f should be at least round-robin %.4f",
			r.Values["fair-wfq"], r.Values["fair-round-robin"])
	}
}

func TestE14PowerFallsWithBurstSize(t *testing.T) {
	r := E14BurstSize(14)
	if !(r.Values["power-40s"] < r.Values["power-5s"] && r.Values["power-5s"] < r.Values["power-2s"]) {
		t.Errorf("power not decreasing with epoch: %v", r.Values)
	}
}

func TestE15SwitchesWithoutUnderruns(t *testing.T) {
	r := E15InterfaceSwitch(15)
	if r.Values["switches"] < 6 {
		t.Errorf("switches = %v, want ≥ 6 (3 clients out and back)", r.Values["switches"])
	}
	if r.Values["underruns"] != 0 {
		t.Errorf("underruns = %v during scripted outage", r.Values["underruns"])
	}
}

func TestAblations(t *testing.T) {
	ifsel := AblationInterfaceSelection(16)
	if ifsel.Values["adaptiveUnder"] > 0 {
		t.Error("adaptive policy should survive the outage")
	}
	if ifsel.Values["pinnedUnder"] == 0 && ifsel.Values["pinnedStall"] == 0 {
		t.Error("pinned-WLAN should visibly suffer during the outage")
	}

	margin := AblationMargin(17)
	if margin.Values["wideUnder"] > 0 {
		t.Error("default margin should cover the switch transient")
	}
	if margin.Values["wideUrgents"] > 2 {
		t.Errorf("default margin needed %v emergency bursts", margin.Values["wideUrgents"])
	}
	if margin.Values["thinUnder"] == 0 && margin.Values["thinUrgents"] < 5 {
		t.Error("1s margin should either stall or degenerate into emergency bursts")
	}

	burst := AblationBurstAggregation(18)
	if burst.Values["bigW"] >= burst.Values["smallW"] {
		t.Errorf("10s bursts (%.4f W) should beat 1s bursts (%.4f W)",
			burst.Values["bigW"], burst.Values["smallW"])
	}
}
