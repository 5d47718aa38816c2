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
// the state constants round-trip through the 2-bit field.
func TestPackedGenerationState(t *testing.T) {
	s := New(1)
	nop := func() {}
	h1 := s.Schedule(Microsecond, nop)
	if !h1.Pending() {
		t.Fatal("fresh handle not pending")
	}
	s.Cancel(h1)
	if !cancelled(h1) || h1.Pending() {
		t.Fatal("cancelled handle misreports")
	}
	// Reuse the slot many times; each lease must invalidate prior handles.
	prev := h1
	for i := 0; i < 100; i++ {
		h := s.Schedule(Microsecond, nop)
		if h.idx == prev.idx && h.gen == prev.gen {
			t.Fatalf("lease %d: generation not bumped on slot reuse", i)
		}
		if prev.Pending() || cancelled(prev) {
			t.Fatalf("lease %d: stale handle still answers", i)
		}
		s.Run()
		if !h.lease().isFired() {
			t.Fatalf("lease %d: fired state lost", i)
		}
		prev = h
	}
}

// isFired is a test helper reading the packed state.
func (e *event) isFired() bool { return e.state() == stateFired }

// cancelled reports whether h still refers to its own lease and that lease
// was cancelled before it fired. A fired event, an inert handle and the
// zero Handle report false.
func cancelled(h Handle) bool {
	e := h.lease()
	return e != nil && e.state() == stateCancelled
}

// TestReserveGrowthPattern pins the power-of-two slab growth: n repeated
// small reserves must trigger O(log n) reallocations, not one per call.
// Before the rounding fix, 4096 Reserve(4)+drain cycles on a growing slab
// copied the whole slab on every call — O(n²) bytes moved.
func TestReserveGrowthPattern(t *testing.T) {
	s := New(1)
	nop := func() {}
	caps := map[int]bool{}
	const rounds = 4096
	for i := 0; i < rounds; i++ {
		s.Reserve(4)
		caps[cap(s.slab)] = true
		// Keep the slots occupied so the free list cannot satisfy the next
		// reserve and the slab genuinely has to keep growing.
		for j := 0; j < 4; j++ {
			s.Schedule(Time(i*4+j+1), nop)
		}
	}
	// Every observed capacity must be a power of two, and there must be
	// logarithmically few of them.
	for c := range caps {
		if c&(c-1) != 0 {
			t.Errorf("slab capacity %d is not a power of two", c)
		}
	}
	if len(caps) > 20 {
		t.Errorf("%d distinct slab capacities over %d reserves; want O(log n)", len(caps), rounds)
	}

	// The batch handle list must grow the same way.
	b := s.NewBatch(0)
	bcaps := map[int]bool{}
	for i := 0; i < rounds; i++ {
		b.Reserve(1)
		b.Schedule(Time(rounds*4+i+1), nop)
		bcaps[cap(b.handles)] = true
	}
	for c := range bcaps {
		if c&(c-1) != 0 {
			t.Errorf("batch capacity %d is not a power of two", c)
		}
	}
	if len(bcaps) > 20 {
		t.Errorf("%d distinct batch capacities over %d reserves; want O(log n)", len(bcaps), rounds)
	}
	s.Run()
}

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
