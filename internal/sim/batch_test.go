package sim

import "testing"

// TestBatchCancelAll checks the group-cancel contract: pending members die,
// fired members are untouched, and the batch is reusable afterwards.
func TestBatchCancelAll(t *testing.T) {
	s := New(1)
	b := s.NewBatch(4)
	var fired []int
	for i := 0; i < 4; i++ {
		i := i
		b.Schedule(Time(10+i), func() { fired = append(fired, i) })
	}
	s.RunUntil(11) // fires members 0 and 1
	if got := pendingMembers(b); got != 2 {
		t.Fatalf("%d members pending with two fired, want 2", got)
	}
	b.CancelAll()
	if got := pendingMembers(b); got != 0 {
		t.Fatalf("%d members pending after CancelAll, want 0", got)
	}
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("%d members fired, want 2 (the pre-cancel ones)", len(fired))
	}

	// The batch must be reusable with the same backing storage.
	ran := false
	b.Schedule(5, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("member scheduled after CancelAll did not fire")
	}
}

// pendingMembers counts the batch's members that have neither fired nor
// been cancelled.
func pendingMembers(b *Batch) int {
	n := 0
	for _, m := range b.handles {
		if m.Pending() {
			n++
		}
	}
	return n
}

// TestSlotBatch checks the fixed-slot form: slot scheduling replaces the
// previous occupant (cancelling it if still pending), and CancelAll vacates
// every slot while keeping them reserved for reuse.
func TestSlotBatch(t *testing.T) {
	s := New(1)
	b := s.NewSlotBatch(2)
	var fired []string
	b.ScheduleSlot(0, 10, func() { fired = append(fired, "a") })
	b.ScheduleSlot(1, 20, func() { fired = append(fired, "b") })
	if !b.handles[0].Pending() || !b.handles[1].Pending() {
		t.Fatal("slots not pending after scheduling")
	}
	// Rescheduling an occupied slot cancels the occupant.
	b.ScheduleSlot(0, 5, func() { fired = append(fired, "a2") })
	s.Run()
	if got := len(fired); got != 2 || fired[0] != "a2" || fired[1] != "b" {
		t.Fatalf("fired %v, want [a2 b]", fired)
	}

	b.ScheduleSlot(0, 10, func() { t.Error("cancelled slot member fired") })
	b.ScheduleSlot(1, 10, func() { t.Error("cancelled slot member fired") })
	b.CancelAll()
	if got := pendingMembers(b); got != 0 {
		t.Fatalf("%d members pending after CancelAll, want 0", got)
	}
	s.Run()

	// Slots stay addressable after CancelAll.
	ran := false
	b.ScheduleSlot(1, 3, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("slot unusable after CancelAll")
	}
}

// TestSlotBatchSteadyStateAllocs pins the cost model that justifies using
// slot batches on the MAC hot path: rearming a slot is allocation-free.
func TestSlotBatchSteadyStateAllocs(t *testing.T) {
	s := New(1)
	b := s.NewSlotBatch(2)
	nop := func() {}
	b.ScheduleSlot(0, 1, nop)
	b.ScheduleSlot(1, 2, nop)
	s.Run()
	if a := testing.AllocsPerRun(200, func() {
		b.ScheduleSlot(0, 1, nop)
		b.ScheduleSlot(1, 2, nop)
		b.CancelAll()
		s.RunUntil(s.Now() + 3)
	}); a != 0 {
		t.Errorf("slot rearm cycle allocates %v per run, want 0", a)
	}
}

// TestBatchSchedulingIsOrderNeutral pins the adoption guarantee: scheduling
// through a Batch produces the same firing order as scheduling directly,
// because Batch.Schedule is the plain Simulator call plus bookkeeping.
func TestBatchSchedulingIsOrderNeutral(t *testing.T) {
	direct := New(1)
	var dOrder []int
	direct.Schedule(5, func() { dOrder = append(dOrder, 0) })
	direct.Schedule(5, func() { dOrder = append(dOrder, 1) })
	direct.Schedule(3, func() { dOrder = append(dOrder, 2) })
	direct.Run()

	batched := New(1)
	b := batched.NewBatch(3)
	var bOrder []int
	b.Schedule(5, func() { bOrder = append(bOrder, 0) })
	b.Schedule(5, func() { bOrder = append(bOrder, 1) })
	b.Schedule(3, func() { bOrder = append(bOrder, 2) })
	batched.Run()

	if len(dOrder) != len(bOrder) {
		t.Fatal("event counts diverge")
	}
	for i := range dOrder {
		if dOrder[i] != bOrder[i] {
			t.Fatalf("order diverges: direct %v, batched %v", dOrder, bOrder)
		}
	}
}

// TestBatchSteadyStateAllocs pins the zero-allocation property of the
// schedule/cancel group cycle once the batch and slab have warmed up.
func TestBatchSteadyStateAllocs(t *testing.T) {
	s := New(1)
	b := s.NewBatch(8)
	nop := func() {}
	// Warm up.
	for i := 0; i < 8; i++ {
		b.Schedule(Time(i+1), nop)
	}
	b.CancelAll()
	s.Run()

	if a := testing.AllocsPerRun(200, func() {
		for i := 0; i < 8; i++ {
			b.Schedule(Time(i+1), nop)
		}
		b.CancelAll()
		s.RunUntil(s.Now() + 10)
	}); a != 0 {
		t.Errorf("batch schedule/cancel cycle allocates %v per run, want 0", a)
	}
}

// TestBatchReserveGrowsSlab checks that Reserve pre-leases enough slab
// capacity that a burst of first-time schedules does not allocate.
func TestBatchReserveGrowsSlab(t *testing.T) {
	s := New(1)
	b := s.NewBatch(0)
	nop := func() {}
	if a := testing.AllocsPerRun(5, func() {
		b.Reserve(64) // no-op once the first call has grown the capacity
		for i := 0; i < 64; i++ {
			b.Schedule(Time(i+1), nop)
		}
		b.CancelAll()
		s.Run() // collect the lazily-cancelled slots back onto the free list
	}); a != 0 {
		t.Errorf("reserved burst allocates %v per run, want 0", a)
	}
}
