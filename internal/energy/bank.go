package energy

import (
	"fmt"

	"repro/internal/sim"
)

// Bank is a struct-of-arrays battery population: one drained column and one
// death-time column indexed by station id, replacing a *Battery (struct,
// callback, two bools) per station. Network-lifetime questions at metro
// scale — how many stations died, when did the first die — become dense
// scans instead of pointer chases, and recycling a churned-out id is a
// constant-time row reset.
//
// Unlike Battery there is no per-cell OnDeath callback: a callback field
// per station is exactly the pointer-heavy layout the bank exists to avoid.
// Callers that need death notifications check Drain's return value at the
// charge site, where the station id is already in hand.
type Bank struct {
	capacity float64
	drained  []float64
	deadAt   []sim.Time // sim.MaxTime while alive
	deaths   int
}

// NewBank creates a bank of n full batteries, each of the given capacity in
// joules. The bank grows on Ensure, so n is just the initial guess.
func NewBank(capacityJ float64, n int) *Bank {
	if capacityJ <= 0 {
		panic(fmt.Sprintf("energy: capacity %g must be positive", capacityJ))
	}
	b := &Bank{capacity: capacityJ}
	b.Ensure(n)
	return b
}

// Len returns the number of battery rows currently allocated.
func (b *Bank) Len() int { return len(b.drained) }

// Capacity returns the per-battery capacity in joules.
func (b *Bank) Capacity() float64 { return b.capacity }

// Ensure grows the bank to cover station ids [0, n), new cells full. Each
// column is reallocated to exactly n rows in one step, so a call allocates
// and copies at most once per column; size for the whole population up
// front rather than one row per call.
func (b *Bank) Ensure(n int) {
	old := len(b.drained)
	if n <= old {
		return
	}
	drained := make([]float64, n)
	copy(drained, b.drained)
	deadAt := make([]sim.Time, n)
	copy(deadAt, b.deadAt)
	for id := old; id < n; id++ {
		deadAt[id] = sim.MaxTime
	}
	b.drained, b.deadAt = drained, deadAt
}

// Reset refills station id's battery (a churn-recycled id gets a fresh
// cell). Resetting a dead cell decrements the death count: the id's new
// occupant is alive.
func (b *Bank) Reset(id int32) {
	if b.deadAt[id] != sim.MaxTime {
		b.deaths--
	}
	b.drained[id] = 0
	b.deadAt[id] = sim.MaxTime
}

// Drain removes j joules from station id's battery at time at, reporting
// whether the cell could supply the full amount. Draining a dead cell is a
// no-op returning false, mirroring Battery.Drain.
func (b *Bank) Drain(id int32, j float64, at sim.Time) bool {
	if j < 0 {
		panic("energy: negative drain")
	}
	if b.deadAt[id] != sim.MaxTime {
		return false
	}
	b.drained[id] += j
	if b.drained[id] >= b.capacity {
		b.drained[id] = b.capacity
		b.deadAt[id] = at
		b.deaths++
		return false
	}
	return true
}

// Remaining returns station id's remaining energy in joules.
func (b *Bank) Remaining(id int32) float64 {
	r := b.capacity - b.drained[id]
	if r < 0 {
		return 0
	}
	return r
}

// Level returns station id's remaining fraction in [0, 1].
func (b *Bank) Level(id int32) float64 { return b.Remaining(id) / b.capacity }

// Dead reports whether station id's battery has emptied.
func (b *Bank) Dead(id int32) bool { return b.deadAt[id] != sim.MaxTime }

// DeadAt returns when station id's battery emptied (sim.MaxTime if alive).
func (b *Bank) DeadAt(id int32) sim.Time { return b.deadAt[id] }

// Deaths returns how many cells are currently dead.
func (b *Bank) Deaths() int { return b.deaths }

// FirstDeath returns the earliest death time across the population, or
// sim.MaxTime if every cell is alive — the network-lifetime metric.
func (b *Bank) FirstDeath() sim.Time {
	first := sim.MaxTime
	for _, t := range b.deadAt {
		if t < first {
			first = t
		}
	}
	return first
}
