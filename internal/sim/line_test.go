package sim

import "testing"

// TestLineKeepsTwoQueued pins the delay line's queue footprint and order:
// however many items it holds, only its first two wait in the kernel's
// queue, they fire in push order at their instants, and a push at or before
// the last item's instant goes to the kernel's queue as a plain At, firing
// after the items already due at that instant.
func TestLineKeepsTwoQueued(t *testing.T) {
	s := New(1)
	l := NewLine(s)
	var got []int
	for i := range 100 {
		l.At(Time(10+i), func() {
			got = append(got, i)
			if i == 98 {
				l.At(109, func() { got = append(got, 100) }) // ties the last item
			}
			if q := s.Pending(); q > 2 {
				t.Errorf("item %d: %d events queued, want at most 2", i, q)
			}
		})
	}
	if q := s.Pending(); q != 2 || l.n != 100 {
		t.Fatalf("%d events queued for %d items, want 2 for 100", q, l.n)
	}
	s.Run()
	if len(got) != 101 || got[99] != 99 || got[100] != 100 || s.Now() != 109 {
		t.Fatalf("fired %d items, the last two %v at %v; want 101 ending [99 100] at 109us", len(got), got[len(got)-2:], s.Now())
	}
	for i := range 100 {
		if got[i] != i {
			t.Fatalf("item %d fired %d-th", got[i], i)
		}
	}
}

// TestLineTiesWithAt checks that an item due at the same instant as plain
// At events fires where an At in its place would: after the ones
// scheduled before its push, before the ones scheduled after, including
// an item held back when those were scheduled.
func TestLineTiesWithAt(t *testing.T) {
	s := New(1)
	l := NewLine(s)
	var got []string
	note := func(name string) func() { return func() { got = append(got, name) } }
	s.At(3, note("at3-before"))
	l.At(1, note("line1"))
	l.At(2, note("line2"))
	l.At(3, note("line3")) // held back until line1 fires
	s.At(3, note("at3-after"))
	s.At(1, func() { l.At(4, note("line4")); s.At(4, note("at4-after")) })
	s.Run()
	want := []string{"line1", "line2", "at3-before", "line3", "at3-after", "line4", "at4-after"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestLineZeroAllocSteadyState extends the kernel's zero-allocation
// guarantee to the delay line: once its ring has grown to the burst size,
// pushing and draining allocates nothing.
func TestLineZeroAllocSteadyState(t *testing.T) {
	s := New(1)
	l := NewLine(s)
	nop := func() {}
	burst := func() {
		for i := range 64 {
			l.At(s.Now()+Time(i+1), nop)
		}
		s.Run()
	}
	burst()
	if a := testing.AllocsPerRun(100, burst); a != 0 {
		t.Errorf("line push/fire allocates %v per burst, want 0", a)
	}
}
