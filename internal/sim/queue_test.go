package sim

import "testing"

// TestSameTickOrderingAcrossBucketBoundaries pins the (at, seq) contract
// on an insertion order that differs from the fire order: timestamps one
// microsecond apart and a same-instant tie whose second member is
// inserted after a later event.
func TestSameTickOrderingAcrossBucketBoundaries(t *testing.T) {
	s := New(1)
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }

	// Interleave insertions so insertion order differs from (at, seq)
	// order.
	s.At(15, rec(0))
	s.At(9, rec(1))
	s.At(17, rec(2))
	s.At(14, rec(3))
	s.At(9, rec(4))
	s.At(16, rec(5))
	s.Run()

	want := []int{1, 4, 3, 0, 5, 2} // at 9(seq1), 9(seq4), 14, 15, 16, 17
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestResetMigratesBetweenWheelAndOverflow rearms one timer back and forth
// between near and far deadlines, behind an unrelated pending event so the
// arms after the first go through the heap: each Reset leaves a dead arm
// behind and only the last may fire.
func TestResetMigratesBetweenWheelAndOverflow(t *testing.T) {
	s := New(1)
	fired, firedAt := 0, Time(0)
	tm := NewTimer(s, func() { fired, firedAt = fired+1, s.Now() })

	tm.Reset(5)    // front register
	tm.Reset(1000) // front arm cancelled eagerly
	s.At(2000, func() {})
	tm.Reset(7)   // heap, precedes the 2000 µs event
	tm.Reset(500) // heap, the 7 µs arm dead
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending() = %d after reset chain, want 2", got)
	}
	s.RunUntil(499)
	if fired != 0 {
		t.Fatal("timer fired before its final deadline")
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times, want exactly 1", fired)
	}
	if firedAt != 500 {
		t.Fatalf("final arm fired at %v, want 500", firedAt)
	}
}

// TestCancelOverflowEntries cancels far-future events sitting in the heap,
// until the dead entries far outnumber the live ones, and checks they
// neither fire nor linger.
func TestCancelOverflowEntries(t *testing.T) {
	s := New(1)
	const n = 256
	var fired []int
	handles := make([]handle, n)
	for i := 0; i < n; i++ {
		i := i
		handles[i] = s.at(Time(1000+i), func() { fired = append(fired, i) })
	}
	// Cancel 3 of every 4: 192 dead entries wait among 64 live ones and
	// are collected as each surfaces at the heap top.
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			s.cancel(handles[i])
		}
	}
	if got := s.Pending(); got != n/4 {
		t.Fatalf("Pending() = %d after mass cancel, want %d", got, n/4)
	}
	s.Run()
	if len(fired) != n/4 {
		t.Fatalf("%d events fired, want %d", len(fired), n/4)
	}
	for k, id := range fired {
		if id != k*4 {
			t.Fatalf("fire order broken at %d: got id %d, want %d", k, id, k*4)
		}
	}
	for i := range handles {
		if pending(handles[i]) {
			t.Fatalf("handle %d still pending after drain", i)
		}
	}
}

// TestClockAdvanceAcrossFullRotation jumps the clock in RunUntil strides
// past several events at once — with cancelled events stranded between
// them — and checks that later events still fire in order and the dead
// entries are collected rather than leaking or reviving.
func TestClockAdvanceAcrossFullRotation(t *testing.T) {
	s := New(1)
	var got []Time
	rec := func() { got = append(got, s.Now()) }

	// A live event every 24 µs, plus a cancelled one 4 µs after each.
	var fireAts []Time
	for k := 1; k <= 5; k++ {
		at := Time(k * 24)
		s.At(at, rec)
		fireAts = append(fireAts, at)
		h := s.at(at+4, func() { t.Error("cancelled event fired") })
		s.cancel(h)
	}
	// Jump in 17 µs horizon strides.
	for h := Time(10); h < 200; h += 17 {
		s.RunUntil(h)
	}
	s.Run()
	if len(got) != len(fireAts) {
		t.Fatalf("fired %d events, want %d", len(got), len(fireAts))
	}
	for i, at := range fireAts {
		if got[i] != at {
			t.Fatalf("event %d fired at %v, want %v", i, got[i], at)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events pending after drain", s.Pending())
	}
}
