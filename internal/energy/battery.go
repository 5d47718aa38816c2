// Package energy provides battery modelling and device-to-battery drain
// tracking. PAMAS-style protocols make sleep decisions from battery levels,
// and network-lifetime experiments need to know when the first node dies.
package energy

import (
	"fmt"

	"repro/internal/sim"
)

// Battery is a finite energy reservoir measured in joules.
type Battery struct {
	capacity float64
	drained  float64
	dead     bool

	// OnDeath is invoked exactly once when the battery empties.
	OnDeath func(at sim.Time)
}

// NewBattery creates a full battery of the given capacity in joules.
func NewBattery(capacityJ float64) *Battery {
	if capacityJ <= 0 {
		panic(fmt.Sprintf("energy: capacity %g must be positive", capacityJ))
	}
	return &Battery{capacity: capacityJ}
}

// Remaining returns the remaining energy in joules.
func (b *Battery) Remaining() float64 {
	r := b.capacity - b.drained
	if r < 0 {
		return 0
	}
	return r
}

// Level returns the remaining fraction in [0, 1].
func (b *Battery) Level() float64 { return b.Remaining() / b.capacity }

// Dead reports whether the battery has emptied.
func (b *Battery) Dead() bool { return b.dead }

// Drain removes j joules at time at. It reports whether the battery could
// supply the full amount; draining a dead battery is a no-op returning false.
func (b *Battery) Drain(j float64, at sim.Time) bool {
	if j < 0 {
		panic("energy: negative drain")
	}
	if b.dead {
		return false
	}
	b.drained += j
	if b.drained >= b.capacity {
		b.drained = b.capacity
		b.dead = true
		if b.OnDeath != nil {
			b.OnDeath(at)
		}
		return false
	}
	return true
}

// EnergySource is anything whose cumulative energy consumption can be read,
// e.g. a radio meter.
type EnergySource interface {
	TotalEnergy() float64
}

// Tracker periodically transfers a source's consumption into a battery.
// It decouples devices (which meter freely) from batteries (which enforce
// a finite budget) at a configurable sampling period.
type Tracker struct {
	last   float64
	ticker *sim.Ticker
}

// NewTracker starts draining battery by the source's consumption, sampled
// every period.
func NewTracker(s *sim.Simulator, src EnergySource, b *Battery, period sim.Time) *Tracker {
	t := &Tracker{last: src.TotalEnergy()}
	t.ticker = sim.NewTicker(s, period, func() {
		cur := src.TotalEnergy()
		delta := cur - t.last
		t.last = cur
		if delta > 0 {
			b.Drain(delta, s.Now())
		}
		if b.Dead() {
			t.ticker.Stop()
		}
	})
	return t
}
