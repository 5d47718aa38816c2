package sim

import "testing"

func TestTimerFires(t *testing.T) {
	s := New(1)
	var firedAt Time = -1
	tm := NewTimer(s, func() { firedAt = s.Now() })
	tm.Reset(5 * Millisecond)
	if !tm.Armed() {
		t.Fatal("timer not armed after Reset")
	}
	if tm.Deadline() != 5*Millisecond {
		t.Errorf("Deadline() = %v, want 5ms", tm.Deadline())
	}
	s.Run()
	if firedAt != 5*Millisecond {
		t.Errorf("fired at %v, want 5ms", firedAt)
	}
	if tm.Armed() {
		t.Error("timer still armed after firing")
	}
}

func TestTimerResetPushesDeadline(t *testing.T) {
	s := New(1)
	var fires []Time
	tm := NewTimer(s, func() { fires = append(fires, s.Now()) })
	tm.Reset(5 * Millisecond)
	s.Schedule(3*Millisecond, func() { tm.Reset(5 * Millisecond) })
	s.Run()
	if len(fires) != 1 || fires[0] != 8*Millisecond {
		t.Errorf("fires = %v, want [8ms]", fires)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := NewTimer(s, func() { fired = true })
	tm.Reset(Millisecond)
	if !tm.Stop() {
		t.Error("Stop() = false on armed timer")
	}
	if tm.Stop() {
		t.Error("Stop() = true on stopped timer")
	}
	s.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	if tm.Deadline() != MaxTime {
		t.Errorf("Deadline() of stopped timer = %v, want MaxTime", tm.Deadline())
	}
}

func TestTimerResetAt(t *testing.T) {
	s := New(1)
	var firedAt Time = -1
	tm := NewTimer(s, func() { firedAt = s.Now() })
	tm.ResetAt(7 * Millisecond)
	s.Run()
	if firedAt != 7*Millisecond {
		t.Errorf("fired at %v, want 7ms", firedAt)
	}
}

func TestTimerRearmInCallback(t *testing.T) {
	s := New(1)
	count := 0
	var tm *Timer
	tm = NewTimer(s, func() {
		count++
		if count < 3 {
			tm.Reset(Millisecond)
		}
	})
	tm.Reset(Millisecond)
	s.Run()
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	if s.Now() != 3*Millisecond {
		t.Errorf("Now() = %v, want 3ms", s.Now())
	}
}

// TestTimerIsOrderNeutral pins what lets a model hold its events in Timers:
// Reset, ResetAt and a Reset over a pending expiry fire in the same order
// as the equivalent direct Schedule calls, because cancelling takes no
// sequence number.
func TestTimerIsOrderNeutral(t *testing.T) {
	type firing struct {
		at Time
		id string
	}
	direct := New(1)
	var dOrder []firing
	rec := func(s *Simulator, order *[]firing, id string) func() {
		return func() { *order = append(*order, firing{s.Now(), id}) }
	}
	direct.Schedule(5, rec(direct, &dOrder, "d"))
	direct.Schedule(5, rec(direct, &dOrder, "b"))
	direct.At(3, rec(direct, &dOrder, "c"))
	direct.Schedule(5, rec(direct, &dOrder, "a"))
	direct.Run()

	timed := New(1)
	var tOrder []firing
	a := NewTimer(timed, rec(timed, &tOrder, "a"))
	b := NewTimer(timed, rec(timed, &tOrder, "b"))
	c := NewTimer(timed, rec(timed, &tOrder, "c"))
	a.Reset(5)
	timed.Schedule(5, rec(timed, &tOrder, "d"))
	b.Reset(5)
	c.ResetAt(3)
	a.Reset(5) // over the pending expiry: a now fires after d and b
	timed.Run()

	if len(dOrder) != len(tOrder) || direct.Fired() != timed.Fired() {
		t.Fatalf("direct fired %v, timers fired %v", dOrder, tOrder)
	}
	for i := range dOrder {
		if dOrder[i] != tOrder[i] {
			t.Fatalf("order diverges: direct %v, timers %v", dOrder, tOrder)
		}
	}
}

// TestFiredTimerIsInertInItsCallback pins the contract that lets a Timer
// schedule its callback with no wrapper: the kernel releases a fired
// event's slot before running it, so inside the callback the timer reads
// as stopped, and a Reset from there arms it afresh.
func TestFiredTimerIsInertInItsCallback(t *testing.T) {
	s := New(1)
	calls := 0
	var tm *Timer
	tm = NewTimer(s, func() {
		calls++
		if tm.Armed() {
			t.Errorf("call %d: Armed() = true inside the callback", calls)
		}
		if d := tm.Deadline(); d != MaxTime {
			t.Errorf("call %d: Deadline() = %v inside the callback, want MaxTime", calls, d)
		}
		if tm.Stop() {
			t.Errorf("call %d: Stop() = true inside the callback", calls)
		}
		if calls == 1 {
			tm.Reset(Millisecond)
		}
	})
	tm.Reset(Millisecond)
	s.Run()
	if calls != 2 || s.Now() != 2*Millisecond {
		t.Errorf("%d calls, last at %v; want 2 calls, the re-armed one at 2ms", calls, s.Now())
	}
}

// TestTimerPairRearmAllocatesNothing pins the cost model of the MAC hot
// path (a DCF station's DIFS and countdown, a PSM client's wakeup and doze
// retry): re-arming and stopping two timers allocates nothing.
func TestTimerPairRearmAllocatesNothing(t *testing.T) {
	s := New(1)
	nop := func() {}
	a, b := NewTimer(s, nop), NewTimer(s, nop)
	if n := testing.AllocsPerRun(200, func() {
		a.Reset(1)
		b.Reset(2)
		a.Reset(3)
		b.Stop()
		s.RunUntil(s.Now() + 3)
	}); n != 0 {
		t.Errorf("two-timer re-arm/stop cycle allocates %v per run, want 0", n)
	}
}

func TestTickerPeriodic(t *testing.T) {
	s := New(1)
	var ticks []Time
	tk := NewTicker(s, 10*Millisecond, func() { ticks = append(ticks, s.Now()) })
	s.Schedule(35*Millisecond, func() { tk.Stop() })
	s.Run()
	want := []Time{10 * Millisecond, 20 * Millisecond, 30 * Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := New(1)
	count := 0
	var tk *Ticker
	tk = NewTicker(s, Millisecond, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	s.Run()
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
}

func TestTickerDoubleStop(t *testing.T) {
	s := New(1)
	tk := NewTicker(s, Millisecond, func() {})
	tk.Stop()
	tk.Stop() // must not panic
	s.Run()
}

func TestNewTickerInvalidPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	NewTicker(New(1), 0, func() {})
}

// TestTimerMovesInPlace pins how a re-arm treats the timer's event: moved
// no earlier while it waits in the heap, it keeps its slot and heap entry,
// and re-keys only when it reaches the top; moved earlier, or held in the
// front register, it is cancelled and scheduled afresh. Either way it
// fires at its last deadline.
func TestTimerMovesInPlace(t *testing.T) {
	s := New(1)
	var firedAt Time = -1
	tm := NewTimer(s, func() { firedAt = s.Now() })
	tm.Reset(10)
	if !s.hasFront {
		t.Fatal("a timer armed on an empty queue should hold the front register")
	}
	h := tm.event
	tm.Reset(20) // in the front register: cancel and schedule
	if tm.event == h {
		t.Fatal("a re-arm of the front register moved in place")
	}
	s.At(15, func() {}) // takes the front register, sending the timer to the heap
	h = tm.event
	tm.ResetAt(30)
	tm.ResetAt(30)
	if tm.event != h || len(s.queue) != 1 || deadEntries(s) != 0 {
		t.Fatalf("later re-arms leased a new event: %d heap entries, %d dead", len(s.queue), deadEntries(s))
	}
	if tm.Deadline() != 30 || !tm.Armed() {
		t.Fatalf("Deadline() = %v, Armed() = %v; want 30us, true", tm.Deadline(), tm.Armed())
	}
	tm.ResetAt(25) // earlier than its deadline: cancel and schedule
	if tm.event == h || deadEntries(s) != 1 {
		t.Fatalf("an earlier re-arm moved in place (%d dead entries)", deadEntries(s))
	}
	h = tm.event
	tm.ResetAt(40)
	s.RunUntil(39)
	if firedAt != -1 || tm.event != h || !tm.Armed() {
		t.Fatalf("timer fired at %v before its 40us deadline", firedAt)
	}
	s.Run()
	if firedAt != 40 || tm.Armed() {
		t.Fatalf("fired at %v, want 40us", firedAt)
	}
	tm.Reset(5)
	s.At(s.Now()+1, func() {})
	tm.Reset(50)
	if !tm.Stop() || tm.Armed() {
		t.Fatal("Stop of a moved timer reported no pending expiry")
	}
	s.Run()
	if firedAt != 40 {
		t.Fatalf("stopped timer fired at %v", firedAt)
	}
}
