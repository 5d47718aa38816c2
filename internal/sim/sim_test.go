package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2.0", got)
	}
	if got := (1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds() = %v, want 1.5", got)
	}
	if got := FromSeconds(0.25); got != 250*Millisecond {
		t.Errorf("FromSeconds(0.25) = %v, want 250ms", got)
	}
	if got := FromSeconds(-0.001); got != -Millisecond {
		t.Errorf("FromSeconds(-0.001) = %v, want -1ms", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Microsecond, "500us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000s"},
		{90 * Second, "90.0s"},
		{MaxTime, "+inf"},
		{-3 * Second, "-3.000s"},
		// Negating the most negative Time overflows back to itself, so a
		// sign-stripping String recursed until the stack overflowed. On
		// amd64 FromSeconds(NaN) yields exactly this value.
		{-MaxTime - 1, "-9223372036854775808us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(30*Microsecond, func() { order = append(order, 3) })
	s.Schedule(10*Microsecond, func() { order = append(order, 1) })
	s.Schedule(20*Microsecond, func() { order = append(order, 2) })
	s.Run()
	if !reflect.DeepEqual(order, []int{1, 2, 3}) {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30*Microsecond {
		t.Errorf("Now() = %v, want 30us", s.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestScheduleInsideEvent(t *testing.T) {
	s := New(1)
	var fired []Time
	s.Schedule(Millisecond, func() {
		fired = append(fired, s.Now())
		s.Schedule(Millisecond, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	want := []Time{Millisecond, 2 * Millisecond}
	if !reflect.DeepEqual(fired, want) {
		t.Errorf("fired = %v, want %v", fired, want)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	e := s.Schedule(Millisecond, func() { ran = true })
	s.cancel(e)
	s.cancel(e) // double cancel must be safe
	s.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	if !cancelled(e) {
		t.Error("slot not marked cancelled after cancel")
	}
}

func TestCancelFromAnotherEvent(t *testing.T) {
	s := New(1)
	ran := false
	victim := s.Schedule(2*Millisecond, func() { ran = true })
	s.Schedule(Millisecond, func() { s.cancel(victim) })
	s.Run()
	if ran {
		t.Error("event cancelled mid-run still ran")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired int
	s.Schedule(Millisecond, func() { fired++ })
	s.Schedule(10*Millisecond, func() { fired++ })
	s.RunUntil(5 * Millisecond)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Now() != 5*Millisecond {
		t.Errorf("Now() = %v, want 5ms (clock advances to horizon)", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
	s.RunUntil(20 * Millisecond)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	var fired int
	s.Schedule(Millisecond, func() {
		fired++
		s.Stop()
	})
	s.Schedule(2*Millisecond, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Errorf("fired = %d after Stop, want 1", fired)
	}
	// Run again resumes.
	s.Run()
	if fired != 2 {
		t.Errorf("fired = %d after resume, want 2", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.Schedule(Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	New(1).Schedule(-1, func() {})
}

func TestNilFunctionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil fn did not panic")
		}
	}()
	New(1).Schedule(Millisecond, nil)
}

func TestEventLimit(t *testing.T) {
	s := New(1)
	s.SetEventLimit(100)
	var rearm func()
	rearm = func() { s.Schedule(Microsecond, rearm) }
	s.Schedule(Microsecond, rearm)
	defer func() {
		if recover() == nil {
			t.Error("event limit exceeded without panic")
		}
	}()
	s.Run()
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		s := New(42)
		var vals []float64
		for i := 0; i < 50; i++ {
			d := Time(s.Rand().Intn(1000)) * Microsecond
			s.Schedule(d, func() { vals = append(vals, s.Rand().Float64()) })
		}
		s.Run()
		return vals
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("two runs with the same seed diverged")
	}
}

func TestFiredCounter(t *testing.T) {
	s := New(1)
	for i := 0; i < 7; i++ {
		s.Schedule(Time(i)*Millisecond, func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Errorf("Fired() = %d, want 7", s.Fired())
	}
}

// Property: events always fire in nondecreasing timestamp order, regardless
// of insertion order.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		s := New(7)
		var fired []Time
		for _, d := range delaysRaw {
			s.Schedule(Time(d)*Microsecond, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delaysRaw) {
			return false
		}
		sorted := make([]Time, len(fired))
		copy(sorted, fired)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return reflect.DeepEqual(fired, sorted)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset leaves exactly the complement firing.
func TestCancelSubsetProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		count := int(n%64) + 1
		s := New(1)
		r := rand.New(rand.NewSource(seed))
		firedSet := make(map[int]bool)
		events := make([]Handle, count)
		for i := 0; i < count; i++ {
			i := i
			events[i] = s.Schedule(Time(r.Intn(100))*Microsecond, func() { firedSet[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := 0; i < count; i++ {
			if r.Intn(2) == 0 {
				s.cancel(events[i])
				cancelled[i] = true
			}
		}
		s.Run()
		for i := 0; i < count; i++ {
			if cancelled[i] == firedSet[i] {
				return false // cancelled must not fire; uncancelled must fire
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Pending returns the number of live (non-cancelled) events currently
// queued.
func (s *Simulator) Pending() int {
	n := len(s.queue) - s.dead
	if s.hasFront {
		n++
	}
	return n
}
