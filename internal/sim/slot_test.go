package sim

import (
	"testing"
	"unsafe"
)

// TestEventSlotPacked pins the slab slot size: 32 bytes on 64-bit platforms
// (two slots per cache line). The generation/state packing exists for this;
// a field added carelessly would silently cost 25% more slab memory and
// halve the slots per cache line at metro-scale populations.
func TestEventSlotPacked(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("slot size target is specified for 64-bit platforms")
	}
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Fatalf("event slot is %d bytes, want 32", got)
	}
}

// TestPackedGenerationState exercises the gs packing through a slot's
// lifecycle: generations survive state flips, stale handles go inert, and
// the state constants round-trip through the 3-bit field.
func TestPackedGenerationState(t *testing.T) {
	s := New(1)
	nop := func() {}
	h1 := s.schedule(Microsecond, nop)
	if !pending(h1) {
		t.Fatal("fresh handle not pending")
	}
	s.cancel(h1)
	if !cancelled(h1) || pending(h1) {
		t.Fatal("cancelled handle misreports")
	}
	// Reuse the slot many times; each lease must invalidate prior handles.
	prev := h1
	for i := 0; i < 100; i++ {
		h := s.schedule(Microsecond, nop)
		if h.idx == prev.idx && h.gen == prev.gen {
			t.Fatalf("lease %d: generation not bumped on slot reuse", i)
		}
		if pending(prev) || cancelled(prev) {
			t.Fatalf("lease %d: stale handle still answers", i)
		}
		s.Run()
		if leaseState(h) != stateFired {
			t.Fatalf("lease %d: fired state lost", i)
		}
		prev = h
	}
}

// leaseState returns the state of h's own lease: 0 for the zero handle and
// for a handle whose slot was leased again.
func leaseState(h handle) uint32 {
	if h.s == nil {
		return 0
	}
	e := &h.s.slab[h.idx]
	if e.gen() != h.gen {
		return 0
	}
	return e.state()
}

// pending reports whether h's event is still queued to fire, at its first
// instant or moved later in place.
func pending(h handle) bool {
	st := leaseState(h)
	return st == statePending || st == stateMoved
}

// cancelled reports whether h still refers to its own lease and that lease
// was cancelled before it fired. A fired event, an inert handle and the
// zero handle report false.
func cancelled(h handle) bool { return leaseState(h) == stateCancelled }

// TestDenseQueueZeroAlloc extends the zero-allocation guarantee to a
// queue held dozens deep: once the heap's backing array has grown to the
// burst size, pushing and draining 64 events must not allocate.
func TestDenseQueueZeroAlloc(t *testing.T) {
	s := New(1)
	nop := func() {}
	for i := 0; i < 256; i++ {
		s.Schedule(Time(i%13+1)*Microsecond, nop)
	}
	s.Run()
	if a := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			s.Schedule(Time(i%13+1)*Microsecond, nop)
		}
		s.Run()
	}); a != 0 {
		t.Errorf("dense queue steady state allocates %v per op, want 0", a)
	}
}
