package sim

import "fmt"

// Timer is a resettable one-shot timer bound to a Simulator, and the one
// way code outside this package holds an event it may cancel or re-arm:
// MAC timeouts, DCF's DIFS and backoff countdown, PSM's pre-TBTT wakeup,
// ARQ retransmission timers and OS-level inactivity timeouts are all
// "fire unless something resets me first" patterns.
//
// The Timer schedules fn itself, with no wrapper: step releases an event's
// slot before it runs the callback, so inside fn the fired event's handle
// is already inert (Armed is false, Deadline is MaxTime, Stop returns false)
// and a Reset from fn schedules afresh.
//
// A Reset or ResetAt that moves a pending expiry waiting in the heap to an
// instant no earlier than its current one moves the event in place: its
// slot takes the new instant and a fresh sequence number, and the heap
// entry is re-keyed only once it reaches the top. That is the common
// retransmission-timer pattern (TCP's RTO pushed back on every new ACK), and
// it costs no heap work per re-arm. Any other re-arm lazily cancels the
// pooled event and leases a new one. Either way an arbitrarily long reset
// storm performs no allocations, and the re-armed expiry takes the sequence
// number a plain Schedule would take at the same point of the run (cancelling
// takes none), so it fires in the same (at, seq) order.
type Timer struct {
	sim   *Simulator
	fn    func()
	event Handle
}

// NewTimer creates a stopped timer that will invoke fn when it expires.
func NewTimer(s *Simulator, fn func()) *Timer {
	if fn == nil {
		panic("sim: nil timer function")
	}
	return &Timer{sim: s, fn: fn}
}

// Reset (re)arms the timer to fire after d, replacing any pending expiry.
func (t *Timer) Reset(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	t.event = t.sim.rearm(t.event, t.sim.now+d, t.fn)
}

// ResetAt (re)arms the timer to fire at absolute time at.
func (t *Timer) ResetAt(at Time) {
	t.event = t.sim.rearm(t.event, at, t.fn)
}

// Stop cancels the pending expiry, if any. It reports whether a pending
// expiry was actually cancelled.
func (t *Timer) Stop() bool {
	armed := t.event.Pending()
	if armed {
		t.sim.cancel(t.event)
	}
	t.event = Handle{} // later reads of a stopped timer touch no slab slot
	return armed
}

// Armed reports whether the timer currently has a pending expiry.
func (t *Timer) Armed() bool { return t.event.Pending() }

// Deadline returns the pending expiry instant, or MaxTime when the timer
// is not armed.
func (t *Timer) Deadline() Time {
	if e := t.event.lease(); e != nil && e.live() {
		return e.at
	}
	return MaxTime
}

// Ticker repeatedly invokes a callback at a fixed period until stopped.
// The callback runs first at start+period. Like Timer, the tick closure is
// created once and each period rearms a pooled event, so a steady ticker
// allocates nothing. Stop cancels the pending tick, so a stopped ticker
// never runs its thunk again.
type Ticker struct {
	sim    *Simulator
	period Time
	fn     func()
	tick   func() // hoisted tick thunk, created once in NewTicker
	event  Handle
	live   bool
}

// NewTicker creates and starts a ticker with the given period.
func NewTicker(s *Simulator, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	if fn == nil {
		panic("sim: nil ticker function")
	}
	t := &Ticker{sim: s, period: period, fn: fn, live: true}
	t.tick = func() {
		t.fn()
		if t.live { // fn may have stopped the ticker
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.event = t.sim.Schedule(t.period, t.tick)
}

// Stop halts the ticker; no further callbacks run.
func (t *Ticker) Stop() {
	if !t.live {
		return
	}
	t.live = false
	t.sim.cancel(t.event)
	t.event = Handle{}
}
