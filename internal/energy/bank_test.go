package energy

import (
	"testing"

	"repro/internal/sim"
)

func TestBankDrainAndDeath(t *testing.T) {
	b := NewBank(10, 3)
	if b.Len() != 3 || b.Capacity() != 10 {
		t.Fatalf("bank shape: Len=%d Cap=%g", b.Len(), b.Capacity())
	}
	if !b.Drain(1, 4, sim.Second) {
		t.Fatal("partial drain reported failure")
	}
	if got := b.Remaining(1); got != 6 {
		t.Fatalf("Remaining(1) = %g, want 6", got)
	}
	if got := b.Level(1); got != 0.6 {
		t.Fatalf("Level(1) = %g, want 0.6", got)
	}
	if b.Drain(1, 7, 2*sim.Second) {
		t.Fatal("over-drain reported success")
	}
	if !b.Dead(1) || b.DeadAt(1) != 2*sim.Second || b.Deaths() != 1 {
		t.Fatalf("death bookkeeping: dead=%v at=%v deaths=%d", b.Dead(1), b.DeadAt(1), b.Deaths())
	}
	if b.Drain(1, 1, 3*sim.Second) {
		t.Fatal("draining a dead cell reported success")
	}
	if b.Remaining(1) != 0 {
		t.Fatalf("dead cell Remaining = %g", b.Remaining(1))
	}

	// Untouched neighbours are unaffected.
	if b.Dead(0) || b.Dead(2) || b.Remaining(0) != 10 {
		t.Fatal("drain leaked into neighbouring cells")
	}
	if got := b.FirstDeath(); got != 2*sim.Second {
		t.Fatalf("FirstDeath = %v, want 2s", got)
	}
}

func TestBankEnsureAndReset(t *testing.T) {
	b := NewBank(5, 1)
	b.Ensure(8)
	if b.Len() != 8 {
		t.Fatalf("after Ensure(8) Len = %d", b.Len())
	}
	for id := int32(1); id < 8; id++ {
		if b.Dead(id) || b.Remaining(id) != 5 {
			t.Fatalf("grown cell %d not full", id)
		}
	}
	b.Ensure(4) // shrink request is a no-op
	if b.Len() != 8 {
		t.Fatalf("Ensure(4) shrank bank to %d", b.Len())
	}

	// A recycled dead id comes back alive and full, and the death count
	// follows the living population.
	b.Drain(7, 5, sim.Second)
	if b.Deaths() != 1 {
		t.Fatalf("Deaths = %d, want 1", b.Deaths())
	}
	b.Reset(7)
	if b.Dead(7) || b.Remaining(7) != 5 || b.Deaths() != 0 {
		t.Fatalf("reset cell: dead=%v rem=%g deaths=%d", b.Dead(7), b.Remaining(7), b.Deaths())
	}
	if b.FirstDeath() != sim.MaxTime {
		t.Fatalf("FirstDeath after reset = %v, want MaxTime", b.FirstDeath())
	}
}

// TestBankDrainZeroAlloc pins the hot path: draining ensured cells must not
// allocate.
func TestBankDrainZeroAlloc(t *testing.T) {
	b := NewBank(1e9, 64)
	if a := testing.AllocsPerRun(100, func() {
		for id := int32(0); id < 64; id++ {
			b.Drain(id, 0.001, sim.Second)
		}
	}); a != 0 {
		t.Errorf("bank drain path allocates %v per op, want 0", a)
	}
}

// TestNewBankSizesColumnsOnce pins Ensure's one-append growth: building a
// metro-sized bank allocates the Bank and each of its two columns once.
// Twenty runs let the per-run average absorb a stray runtime allocation.
func TestNewBankSizesColumnsOnce(t *testing.T) {
	if a := testing.AllocsPerRun(20, func() { NewBank(1, 100_000) }); a > 3 {
		t.Errorf("NewBank(1, 100000) makes %v allocations, want at most 3", a)
	}
	if b := NewBank(1, 100_000); b.FirstDeath() != sim.MaxTime || b.Deaths() != 0 {
		t.Errorf("fresh bank: first death %v, %d deaths", b.FirstDeath(), b.Deaths())
	}
}
