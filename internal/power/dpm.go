// Package power implements OS-level dynamic power management for wireless
// devices: policies that decide when to put an idle WNIC to sleep without
// any application knowledge, relying — as the paper puts it — "on the
// quality of the predictive techniques". The experiment compares fixed
// timeouts, adaptive timeouts, exponential-average prediction and the
// clairvoyant oracle lower bound.
package power

import (
	"fmt"

	"repro/internal/radio"
	"repro/internal/sim"
)

// Policy decides how long to remain idle before sleeping.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// SleepDelay is consulted when the device becomes idle. It returns how
	// long to wait before sleeping; 0 sleeps immediately, sim.MaxTime never
	// sleeps. nextArrival is sim.MaxTime except for the oracle.
	SleepDelay(nextArrival sim.Time) sim.Time
	// ObserveIdle reports the realized length of the idle period that just
	// ended, letting adaptive policies learn.
	ObserveIdle(idle sim.Time)
}

// Breakeven returns the minimum idle period worth sleeping through for a
// profile: below it, the transition energy exceeds what sleeping saves.
// Derivation: sleeping saves (Pidle - Psleep)·t but costs the two
// transition energies plus the wake latency spent at idle-equivalent power.
func Breakeven(p *radio.Profile) sim.Time {
	down := p.TransitionCost(radio.Idle, radio.Sleep)
	up := p.TransitionCost(radio.Sleep, radio.Idle)
	save := p.Power[radio.Idle] - p.Power[radio.Sleep]
	if save <= 0 {
		return sim.MaxTime
	}
	transJ := down.Energy + up.Energy
	t := sim.FromSeconds(transJ / save)
	lat := down.Latency + up.Latency
	return max(t, lat)
}

// AlwaysOn never sleeps: the baseline every DPM policy is measured against.
type AlwaysOn struct{}

// Name implements Policy.
func (AlwaysOn) Name() string { return "always-on" }

// SleepDelay implements Policy: never sleep.
func (AlwaysOn) SleepDelay(sim.Time) sim.Time { return sim.MaxTime }

// ObserveIdle implements Policy.
func (AlwaysOn) ObserveIdle(sim.Time) {}

// FixedTimeout sleeps after a constant idle timeout.
type FixedTimeout struct {
	Timeout sim.Time
}

// Name implements Policy.
func (p *FixedTimeout) Name() string { return fmt.Sprintf("timeout-%v", p.Timeout) }

// SleepDelay implements Policy.
func (p *FixedTimeout) SleepDelay(sim.Time) sim.Time { return p.Timeout }

// ObserveIdle implements Policy.
func (p *FixedTimeout) ObserveIdle(sim.Time) {}

// AdaptiveTimeout doubles its timeout when sleeping proved premature (the
// idle period barely exceeded the timeout) and shrinks it geometrically when
// idle periods run long — the classic Douglis-style adaptive disk policy
// applied to a WNIC.
type AdaptiveTimeout struct {
	Min, Max sim.Time
	cur      sim.Time
	breakevn sim.Time
}

// NewAdaptiveTimeout creates the policy with the given bounds, starting at
// the geometric midpoint, judging sleeps against the profile's breakeven.
func NewAdaptiveTimeout(profile *radio.Profile, min, max sim.Time) *AdaptiveTimeout {
	if min <= 0 || max < min {
		panic(fmt.Sprintf("power: bad adaptive bounds [%v, %v]", min, max))
	}
	return &AdaptiveTimeout{Min: min, Max: max, cur: (min + max) / 2, breakevn: Breakeven(profile)}
}

// Name implements Policy.
func (p *AdaptiveTimeout) Name() string { return "adaptive-timeout" }

// SleepDelay implements Policy.
func (p *AdaptiveTimeout) SleepDelay(sim.Time) sim.Time { return p.cur }

// ObserveIdle implements Policy: a "bad sleep" is an idle period that
// exceeded the timeout by less than the breakeven (we paid the transition
// without amortizing it) — back off. Long idles mean we slept too late —
// lean in.
func (p *AdaptiveTimeout) ObserveIdle(idle sim.Time) {
	if idle > p.cur && idle-p.cur < p.breakevn {
		p.cur *= 2
		if p.cur > p.Max {
			p.cur = p.Max
		}
	} else if idle > 2*p.cur {
		p.cur = p.cur * 3 / 4
		if p.cur < p.Min {
			p.cur = p.Min
		}
	}
}

// Predictive keeps an exponential average of idle lengths and sleeps
// immediately when the prediction exceeds the breakeven point.
type Predictive struct {
	Alpha    float64
	pred     float64 // seconds
	breakevn sim.Time
	seeded   bool
}

// NewPredictive creates the policy with smoothing weight alpha.
func NewPredictive(profile *radio.Profile, alpha float64) *Predictive {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("power: alpha %g outside (0,1]", alpha))
	}
	return &Predictive{Alpha: alpha, breakevn: Breakeven(profile)}
}

// Name implements Policy.
func (p *Predictive) Name() string { return "predictive" }

// SleepDelay implements Policy: sleep at once when the predicted idle pays
// for the transition, otherwise hold for the breakeven period as a hedge.
func (p *Predictive) SleepDelay(sim.Time) sim.Time {
	if p.seeded && sim.FromSeconds(p.pred) > p.breakevn {
		return 0
	}
	return p.breakevn
}

// ObserveIdle implements Policy.
func (p *Predictive) ObserveIdle(idle sim.Time) {
	if !p.seeded {
		p.pred = idle.Seconds()
		p.seeded = true
		return
	}
	p.pred = float64(p.Alpha*idle.Seconds()) + float64((1-p.Alpha)*p.pred)
}

// Oracle knows the next arrival: it sleeps immediately exactly when the
// idle period exceeds breakeven. No realizable policy does better.
type Oracle struct {
	breakevn sim.Time
}

// NewOracle creates the clairvoyant policy for a profile.
func NewOracle(profile *radio.Profile) *Oracle {
	return &Oracle{breakevn: Breakeven(profile)}
}

// Name implements Policy.
func (p *Oracle) Name() string { return "oracle" }

// SleepDelay implements Policy.
func (p *Oracle) SleepDelay(nextArrival sim.Time) sim.Time {
	if nextArrival == sim.MaxTime {
		return 0 // no more work ever: sleep
	}
	if nextArrival > p.breakevn {
		return 0
	}
	return sim.MaxTime // not worth it; stay idle
}

// ObserveIdle implements Policy.
func (p *Oracle) ObserveIdle(sim.Time) {}
