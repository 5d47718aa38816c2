package sim

import "testing"

// TestZeroAllocSteadyState pins the kernel's core guarantee: once the slab
// and queue have warmed up, scheduling, firing, cancelling and timer resets
// allocate nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	s := New(1)
	nop := func() {}

	// Warm up slab and heap capacity.
	for i := 0; i < 256; i++ {
		s.Schedule(Time(i+1)*Microsecond, nop)
	}
	s.Run()

	if a := testing.AllocsPerRun(200, func() {
		s.Schedule(Microsecond, nop)
		s.RunUntil(s.Now() + Microsecond)
	}); a != 0 {
		t.Errorf("schedule/fire allocates %v per op, want 0", a)
	}

	if a := testing.AllocsPerRun(200, func() {
		h := s.Schedule(Microsecond, nop)
		s.Cancel(h)
		s.RunUntil(s.Now() + Microsecond)
	}); a != 0 {
		t.Errorf("schedule/cancel allocates %v per op, want 0", a)
	}

	tm := NewTimer(s, nop)
	if a := testing.AllocsPerRun(200, func() {
		tm.Reset(10 * Microsecond)
	}); a != 0 {
		t.Errorf("Timer.Reset allocates %v per op, want 0", a)
	}
	tm.Stop()

	tk := NewTicker(s, Microsecond, nop)
	if a := testing.AllocsPerRun(200, func() {
		s.RunUntil(s.Now() + Microsecond)
	}); a != 0 {
		t.Errorf("ticker steady state allocates %v per op, want 0", a)
	}
	tk.Stop()
}

// TestCancelAfterFireIsNoOp pins the fixed semantics: cancelling an event
// that already fired must not leave its slot marked cancelled.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	s := New(1)
	ran := false
	h := s.Schedule(Millisecond, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("event did not fire")
	}
	s.Cancel(h)
	if cancelled(h) {
		t.Error("slot marked cancelled for a fired event")
	}
	if h.Pending() {
		t.Error("Pending() = true for a fired event")
	}
}

// TestStaleHandleIsInert verifies generation counting: once a slot is
// reused, handles from the previous lease neither report state nor cancel
// the new occupant.
func TestStaleHandleIsInert(t *testing.T) {
	s := New(1)
	first := s.Schedule(Microsecond, func() {})
	s.Run() // fires and releases the slot

	ran := false
	second := s.Schedule(Microsecond, func() { ran = true }) // reuses the slot
	if second.idx != first.idx {
		t.Fatalf("slot not reused: first idx %d, second idx %d", first.idx, second.idx)
	}
	s.Cancel(first) // stale: must not cancel the new occupant
	if first.Pending() || cancelled(first) {
		t.Error("stale handle reports state")
	}
	s.Run()
	if !ran {
		t.Error("stale Cancel hit the slot's new occupant")
	}
}

// TestZeroHandle checks that the zero Handle is safely inert everywhere.
func TestZeroHandle(t *testing.T) {
	s := New(1)
	var h Handle
	s.Cancel(h) // no-op, no panic
	if h.Pending() || cancelled(h) || h.At() != 0 {
		t.Error("zero handle is not inert")
	}
}

// TestCrossSimulatorCancelIsNoOp guards against cancelling a handle on the
// wrong simulator.
func TestCrossSimulatorCancelIsNoOp(t *testing.T) {
	a, b := New(1), New(2)
	ran := false
	h := a.Schedule(Microsecond, func() { ran = true })
	b.Cancel(h)
	if !h.Pending() {
		t.Error("foreign Cancel cancelled the event")
	}
	a.Run()
	if !ran {
		t.Error("event did not fire")
	}
}

// TestLazyCancellationCompaction drives the queue into heavy-cancellation
// territory and checks that dead entries are collected (Pending stays
// truthful) and survivors still fire in order.
func TestLazyCancellationCompaction(t *testing.T) {
	s := New(1)
	const n = 1000
	var fired []int
	handles := make([]Handle, n)
	for i := 0; i < n; i++ {
		i := i
		handles[i] = s.Schedule(Time(i+1)*Microsecond, func() { fired = append(fired, i) })
	}
	// Cancel 90%: far past the dead>live compaction threshold.
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			s.Cancel(handles[i])
		}
	}
	if got := s.Pending(); got != n/10 {
		t.Errorf("Pending() = %d after mass cancel, want %d", got, n/10)
	}
	s.Run()
	if len(fired) != n/10 {
		t.Fatalf("%d events fired, want %d", len(fired), n/10)
	}
	for k, id := range fired {
		if id != k*10 {
			t.Fatalf("fire order broken at %d: got id %d, want %d", k, id, k*10)
		}
	}
}

// TestResetStormPoolReuse verifies that an arbitrarily long reset storm
// keeps the slab bounded: lazy-cancelled arms are recycled, not leaked.
func TestResetStormPoolReuse(t *testing.T) {
	s := New(1)
	tm := NewTimer(s, func() {})
	for i := 0; i < 100000; i++ {
		tm.Reset(10 * Microsecond)
		if i%8 == 7 {
			s.RunUntil(s.Now() + Microsecond)
		}
	}
	if got := len(s.slab); got > 4096 {
		t.Errorf("slab grew to %d slots under a reset storm; recycling is broken", got)
	}
	tm.Stop()
	s.Run()
}
