package power

import (
	"math"
	"testing"

	"repro/internal/radio"
	"repro/internal/sim"
)

func TestLedgerAccounting(t *testing.T) {
	p := radio.WLAN80211b()
	l := NewLedger(p, 3)

	// Station 1: 2 s sleep, 10 ms idle, one Sleep→Idle transition.
	l.Dwell(1, radio.Sleep, 2*sim.Second)
	l.Dwell(1, radio.Idle, 10*sim.Millisecond)
	lat := l.Transition(1, radio.Sleep, radio.Idle)
	if lat != 2*sim.Millisecond {
		t.Fatalf("Sleep→Idle latency = %v, want 2ms", lat)
	}
	want := 2.0*p.Power[radio.Sleep] + 0.010*p.Power[radio.Idle] + 0.002
	if got := l.EnergyJ(1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("EnergyJ(1) = %g, want %g", got, want)
	}

	// Station 0: never charged — zero energy.
	if got := l.EnergyJ(0); got != 0 {
		t.Fatalf("EnergyJ(0) = %g, want 0", got)
	}

	// TotalJ aggregates the population.
	l.Dwell(2, radio.RX, sim.Second)
	wantTotal := want + 1.0*p.Power[radio.RX]
	if got := l.TotalJ(); math.Abs(got-wantTotal) > 1e-12 {
		t.Fatalf("TotalJ = %g, want %g", got, wantTotal)
	}
	if got := l.TotalTimeIn(radio.Sleep); got != 2*sim.Second {
		t.Fatalf("TotalTimeIn(Sleep) = %v, want 2s", got)
	}
	if got := l.TimeIn(2, radio.RX); got != sim.Second {
		t.Fatalf("TimeIn(2, RX) = %v, want 1s", got)
	}
}

func TestLedgerEnsureAndReset(t *testing.T) {
	p := radio.WLAN80211b()
	l := NewLedger(p, 0)
	if l.Len() != 0 {
		t.Fatalf("empty ledger Len = %d", l.Len())
	}
	l.Ensure(10)
	if l.Len() != 10 {
		t.Fatalf("after Ensure(10) Len = %d", l.Len())
	}
	l.Ensure(4) // shrink request is a no-op
	if l.Len() != 10 {
		t.Fatalf("Ensure(4) shrank ledger to %d", l.Len())
	}

	l.Dwell(7, radio.TX, sim.Second)
	l.Transition(7, radio.Idle, radio.Sleep)
	l.Reset(7)
	if got := l.EnergyJ(7); got != 0 {
		t.Fatalf("after Reset, EnergyJ = %g, want 0", got)
	}
	if got := l.TimeIn(7, radio.TX); got != 0 {
		t.Fatalf("after Reset, TimeIn(TX) = %v, want 0", got)
	}
}

// TestLedgerChargeZeroAlloc pins the hot path: charging dwell time and
// transitions into an ensured ledger must not allocate.
func TestLedgerChargeZeroAlloc(t *testing.T) {
	l := NewLedger(radio.WLAN80211b(), 64)
	if a := testing.AllocsPerRun(100, func() {
		for id := int32(0); id < 64; id++ {
			l.Dwell(id, radio.Sleep, sim.Millisecond)
			l.Transition(id, radio.Sleep, radio.Idle)
		}
	}); a != 0 {
		t.Errorf("ledger charge path allocates %v per op, want 0", a)
	}
}

// TestNewLedgerSizesColumnsOnce pins Ensure's one-append growth: building
// a metro-sized ledger allocates the Ledger and each column once. Twenty
// runs let the per-run average absorb a stray runtime allocation.
func TestNewLedgerSizesColumnsOnce(t *testing.T) {
	p := radio.WLAN80211b()
	if a := testing.AllocsPerRun(20, func() { NewLedger(p, 100_000) }); a > float64(radio.NumStates+2) {
		t.Errorf("NewLedger(p, 100000) makes %v allocations, want at most %d", a, radio.NumStates+2)
	}
	l := NewLedger(p, 100_000)
	for st := radio.State(0); int(st) < radio.NumStates; st++ {
		if got := l.TotalTimeIn(st); got != 0 {
			t.Errorf("fresh ledger has %v in state %d", got, st)
		}
	}
	if got := l.TotalJ(); got != 0 {
		t.Errorf("fresh ledger TotalJ = %g, want 0", got)
	}
}
