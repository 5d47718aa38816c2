package radio

import (
	"repro/internal/sim"
)

// Meter integrates a device's power draw over simulated time, keeping both
// the total and a per-state breakdown. All Figure 2 style numbers come out
// of Meters.
type Meter struct {
	sim     *sim.Simulator
	profile *Profile

	state     State
	since     sim.Time // when the current state was entered
	startedAt sim.Time

	stateTime   [numStates]sim.Time
	stateEnergy [numStates]float64
	transEnergy float64
}

func newMeter(s *sim.Simulator, p *Profile, initial State) *Meter {
	return &Meter{sim: s, profile: p, state: initial, since: s.Now(), startedAt: s.Now()}
}

// setState closes the accounting period for the old state and opens one for
// the new state.
func (m *Meter) setState(s State) {
	m.settle()
	m.state = s
}

// settle accrues time/energy for the current state up to now.
func (m *Meter) settle() {
	now := m.sim.Now()
	dt := now - m.since
	if dt > 0 {
		m.stateTime[m.state] += dt
		// Rounded before the sum so no arch fuses it into an FMA.
		m.stateEnergy[m.state] += float64(m.profile.Power[m.state] * dt.Seconds())
	}
	m.since = now
}

// addTransitionEnergy charges a one-off transition energy cost.
func (m *Meter) addTransitionEnergy(j float64) { m.transEnergy += j }

// TotalEnergy returns the joules consumed since metering began, including
// transition energies.
func (m *Meter) TotalEnergy() float64 {
	m.settle()
	total := m.transEnergy
	for _, e := range m.stateEnergy {
		total += e
	}
	return total
}

// StateEnergy returns the joules consumed while in state s.
func (m *Meter) StateEnergy(s State) float64 {
	m.settle()
	return m.stateEnergy[s]
}

// StateTime returns the cumulative time spent in state s.
func (m *Meter) StateTime(s State) sim.Time {
	m.settle()
	return m.stateTime[s]
}

// TransitionEnergy returns the joules consumed by state transitions alone.
func (m *Meter) TransitionEnergy() float64 { return m.transEnergy }

// Elapsed returns the wall-clock (simulated) observation window so far.
func (m *Meter) Elapsed() sim.Time { return m.sim.Now() - m.startedAt }

// AveragePower returns total energy divided by elapsed time, in watts. This
// is the quantity Figure 2 plots.
func (m *Meter) AveragePower() float64 {
	el := m.Elapsed()
	if el <= 0 {
		return 0
	}
	return m.TotalEnergy() / el.Seconds()
}

// StateFraction returns the fraction of elapsed time spent in state s.
func (m *Meter) StateFraction(s State) float64 {
	el := m.Elapsed()
	if el <= 0 {
		return 0
	}
	return float64(m.StateTime(s)) / float64(el)
}

// Reset zeroes all accumulated statistics and restarts the observation
// window at the current simulation time, keeping the current state.
func (m *Meter) Reset() {
	m.settle()
	m.stateTime = [numStates]sim.Time{}
	m.stateEnergy = [numStates]float64{}
	m.transEnergy = 0
	m.startedAt = m.sim.Now()
	m.since = m.sim.Now()
}
