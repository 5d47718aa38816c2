package metro

import (
	"math"

	"repro/internal/radio"
	"repro/internal/sim"
)

// Closed-form expectations for the metro model, in the style of the
// analytical 802.11 PSM energy models of Agrawal et al.: every aggregate
// the simulation measures is the sum of per-attendance expectations that
// have exact closed forms, because the model's randomness is fully
// specified — Poisson(λ) downlink arrivals per station, bounded-Pareto
// frame sizes, deterministic beacon attendance.
//
// Per attended beacon with arrival window w (time since the station's
// previous attended beacon):
//
//	F(w)    = λw                      expected buffered frames
//	q(w)    = 1 − e^(−λw)             P(TIM bit set)
//	E[tx]   = F·PollAir               PS-Poll airtime (TX)
//	E[rx]   = F·(OH+E[L])·8/rate      data airtime (RX), E[L] the Pareto mean
//	t̄       = PollAir + (OH+E[L])·8/rate   expected airtime of one delivery
//	E[wait] = q·pos·F·t̄              wait at attach position pos: the polls
//	                                  of the pos earlier stations, each an
//	                                  unconditional F·t̄, incurred only when
//	                                  the station itself stays awake (q)
//
// and the cycle's remaining time is slept. Summing per-station expectations
// over a 10⁵-station population, the law of large numbers puts the
// simulation within a fraction of a percent of these values; the [analytic]
// experiment tags assert the agreement.
//
// Under churn the population is an M/M/∞ queue (Poisson joins at rate a,
// exponential lifetimes τ): E[n(t)] = n̄ + (n₀−n̄)e^(−t/τ) with n̄ = aτ, and
// the per-station steady-state cycle above prices each station-second.
// Edge effects (partial windows at join, death and horizon) are corrected
// to first order; Predict.TolerancePct reflects the looser agreement.

// Prediction is the closed-form expectation of a Report.
type Prediction struct {
	EnergyJ        float64
	AvgPowerW      float64
	DeliveredBytes float64
	ThroughputBps  float64
	StationSec     float64

	// TolerancePct is the relative sim-vs-model agreement the [analytic]
	// tests assert, in percent: tight for the exact no-churn form, looser
	// for the first-order churn corrections.
	TolerancePct float64
}

// Predict evaluates the closed form for a configuration.
func Predict(cfg Config) Prediction {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.ArrivalRate > 0 {
		return predictChurn(cfg)
	}
	return predictDense(cfg)
}

// perAttendance bundles the window-dependent expectations above.
type perAttendance struct {
	f, q, txSec, rxSec, waitUnitSec float64 // waitUnitSec = q·F·t̄: wait per unit position
}

func (cfg Config) attendance(w sim.Time) perAttendance {
	lam := cfg.RatePerStation
	f := lam * w.Seconds()
	q := 1 - math.Exp(-f)
	perFrameRx := (float64(cfg.OverheadBytes) + cfg.Frame.Mean()) * 8 / cfg.Profile.BitRate
	tbar := cfg.PollAir.Seconds() + perFrameRx
	return perAttendance{
		f: f, q: q,
		txSec:       f * cfg.PollAir.Seconds(),
		rxSec:       f * perFrameRx,
		waitUnitSec: q * f * tbar,
	}
}

// predictDense mirrors the simulation's accounting recursion in
// expectation, group by group: for each (AP, phase) cell it walks the
// attended beacons once at the group's mean attach position and multiplies
// by the group size — exact, because every per-station quantity is linear
// in the position.
func predictDense(cfg Config) Prediction {
	p := cfg.Profile
	k := cfg.ListenInterval
	bsec := cfg.BeaconInterval.Seconds()
	hsec := cfg.Horizon.Seconds()
	nb := int64(cfg.Horizon / cfg.BeaconInterval)
	wake := p.TransitionCost(radio.Sleep, radio.Idle).Energy
	doze := p.TransitionCost(radio.Idle, radio.Sleep).Energy

	// Group sizes from the attach lattice.
	sizes := make([]int, cfg.APs*k)
	for i := 0; i < cfg.Stations; i++ {
		sizes[i%cfg.APs*k+i/cfg.APs%k]++
	}

	var pred Prediction
	for g, m := range sizes {
		if m == 0 {
			continue
		}
		phase := g % k
		mean := float64(m-1) / 2 // mean attach position in the group

		// Arrivals accumulate continuously and are flushed at every
		// attended beacon, so window b's length is exactly t_b − t_prev
		// (with t_0 = 0: the first window runs from the start of the run).
		var energy, sleepSec, delivered float64
		accEnd := 0.0 // expected accounting watermark, at the mean position
		prevT := 0.0
		for b := int64(1); b <= nb; b++ {
			if int(b%int64(k)) != phase {
				continue
			}
			t := float64(float64(b) * bsec)
			att := cfg.attendance(sim.FromSeconds(t - prevT))
			wait := float64(att.waitUnitSec * mean)
			sleepSec += math.Max(0, t-cfg.WakeLead.Seconds()-accEnd)
			energy += wake + doze +
				float64((cfg.WakeLead.Seconds()+wait)*p.Power[radio.Idle]) +
				float64((cfg.BeaconAir.Seconds()+att.rxSec)*p.Power[radio.RX]) +
				float64(att.txSec*p.Power[radio.TX])
			accEnd = t + cfg.BeaconAir.Seconds() + wait + att.txSec + att.rxSec
			delivered += float64(att.f * cfg.Frame.Mean())
			prevT = t
		}
		sleepSec += math.Max(0, hsec-accEnd)
		energy += float64(sleepSec * p.Power[radio.Sleep])

		pred.EnergyJ += float64(float64(m) * energy)
		pred.DeliveredBytes += float64(float64(m) * delivered)
	}
	pred.StationSec = float64(cfg.Stations) * hsec
	if pred.StationSec > 0 {
		pred.AvgPowerW = pred.EnergyJ / pred.StationSec
	}
	pred.ThroughputBps = pred.DeliveredBytes * 8 / hsec
	pred.TolerancePct = 3
	return pred
}

// predictChurn prices M/M/∞ station-time with the steady-state cycle and
// corrects delivery for the partial windows lost at death and horizon.
func predictChurn(cfg Config) Prediction {
	p := cfg.Profile
	k := cfg.ListenInterval
	cycle := float64(cfg.BeaconInterval.Seconds() * float64(k))
	hsec := cfg.Horizon.Seconds()
	tau := cfg.MeanLifetime.Seconds()
	nbar := float64(cfg.ArrivalRate * tau)
	n0 := float64(cfg.Stations)
	wakeE := p.TransitionCost(radio.Sleep, radio.Idle).Energy
	dozeE := p.TransitionCost(radio.Idle, radio.Sleep).Energy

	// ∫₀ᴴ E[n(t)] dt with E[n(t)] = n̄ + (n₀−n̄)e^(−t/τ).
	stationSec := float64(nbar*hsec) + float64((n0-nbar)*tau*(1-math.Exp(-hsec/tau)))

	// Steady-state per-station cycle at the mean group occupancy.
	att := cfg.attendance(sim.FromSeconds(cycle))
	meanPos := math.Max(0, nbar/float64(cfg.APs*k)-1) / 2
	wait := float64(att.waitUnitSec * meanPos)
	awake := cfg.WakeLead.Seconds() + wait + cfg.BeaconAir.Seconds() + att.txSec + att.rxSec
	cycleJ := wakeE + dozeE +
		float64((cfg.WakeLead.Seconds()+wait)*p.Power[radio.Idle]) +
		float64((cfg.BeaconAir.Seconds()+att.rxSec)*p.Power[radio.RX]) +
		float64(att.txSec*p.Power[radio.TX]) +
		float64(math.Max(0, cycle-awake)*p.Power[radio.Sleep])
	avgW := cycleJ / cycle

	// Delivery: arrivals are flushed at attended beacons, so each station's
	// final partial window — at death or at the horizon — goes undelivered.
	// Stations terminating at a phase-uniform instant lose cycle/2 of
	// arrival time on average; every station ever alive terminates once.
	everAlive := n0 + float64(cfg.ArrivalRate*hsec)
	covered := math.Max(0, stationSec-float64(everAlive*cycle/2))
	delivered := cfg.RatePerStation * cfg.Frame.Mean() * covered

	return Prediction{
		EnergyJ:        avgW * stationSec,
		AvgPowerW:      avgW,
		DeliveredBytes: delivered,
		ThroughputBps:  delivered * 8 / hsec,
		StationSec:     stationSec,
		TolerancePct:   7,
	}
}
