package power

import (
	"repro/internal/radio"
	"repro/internal/sim"
)

// Ledger is a struct-of-arrays time-in-state account for a whole station
// population. Where radio.Device meters one station with its own struct,
// timer and callback plumbing, a Ledger holds one float64 column per power
// state indexed by station id — the representation metro-scale experiments
// need: attributing dwell time to 10⁵–10⁶ stations touches dense arrays
// sequentially instead of chasing a pointer per station, and recycling a
// churned-out station id is a constant-time row reset, not an allocation.
//
// The ledger is pure accounting: callers decide when a station changes
// state and for how long it dwelt; the ledger converts that to joules with
// the profile's calibration. This split keeps the hot path free of
// interface calls and lets closed-form models charge an entire association
// lifetime in one call.
type Ledger struct {
	profile *radio.Profile

	// dwell[st][id] is station id's cumulative time in state st. One slice
	// per state (columns), not one array per station (rows): experiments
	// aggregate over the population state-by-state, so the column layout is
	// the sequential-scan one.
	dwell [radio.NumStates][]sim.Time

	// transJ[id] is station id's cumulative state-transition energy.
	transJ []float64
}

// NewLedger creates a ledger for n stations, all columns zero. The ledger
// grows on Ensure, so n is just the initial population guess.
func NewLedger(p *radio.Profile, n int) *Ledger {
	l := &Ledger{profile: p}
	l.Ensure(n)
	return l
}

// Len returns the number of station rows currently allocated.
func (l *Ledger) Len() int { return len(l.transJ) }

// Ensure grows the ledger to cover station ids [0, n), new rows zero. Each
// column is reallocated to exactly n rows in one step, so a call allocates
// and copies at most once per column; size for the whole population up
// front rather than one row per call.
func (l *Ledger) Ensure(n int) {
	if n <= len(l.transJ) {
		return
	}
	l.transJ = grow(l.transJ, n)
	for st := range l.dwell {
		l.dwell[st] = grow(l.dwell[st], n)
	}
}

// grow returns col extended with zero rows to length n in one allocation.
func grow[T any](col []T, n int) []T {
	g := make([]T, n)
	copy(g, col)
	return g
}

// Reset zeroes station id's row so a churn-recycled id starts a fresh
// account. O(NumStates), no allocation.
func (l *Ledger) Reset(id int32) {
	for st := range l.dwell {
		l.dwell[st][id] = 0
	}
	l.transJ[id] = 0
}

// Dwell charges station id with d time in state st.
func (l *Ledger) Dwell(id int32, st radio.State, d sim.Time) {
	l.dwell[st][id] += d
}

// Transition charges station id with the energy of a from→to state change
// and returns its latency, so callers can account the transition time to
// whichever state their model says the station occupies during it.
func (l *Ledger) Transition(id int32, from, to radio.State) sim.Time {
	t := l.profile.TransitionCost(from, to)
	l.transJ[id] += t.Energy
	return t.Latency
}

// TimeIn returns station id's cumulative time in state st.
func (l *Ledger) TimeIn(id int32, st radio.State) sim.Time {
	return l.dwell[st][id]
}

// EnergyJ returns station id's total energy: per-state dwell times the
// profile's state power, plus accumulated transition energy.
func (l *Ledger) EnergyJ(id int32) float64 {
	j := l.transJ[id]
	for st := range l.dwell {
		j += l.dwell[st][id].Seconds() * l.profile.Power[st]
	}
	return j
}

// TotalJ returns the population's total energy in joules, scanning each
// state column once.
func (l *Ledger) TotalJ() float64 {
	var j float64
	for _, t := range l.transJ {
		j += t
	}
	for st := range l.dwell {
		var sec float64
		for _, d := range l.dwell[st] {
			sec += d.Seconds()
		}
		j += sec * l.profile.Power[st]
	}
	return j
}

// TotalTimeIn returns the population's cumulative time in state st.
func (l *Ledger) TotalTimeIn(st radio.State) sim.Time {
	var d sim.Time
	for _, t := range l.dwell[st] {
		d += t
	}
	return d
}
