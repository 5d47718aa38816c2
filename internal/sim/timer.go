package sim

import "fmt"

// Timer is a resettable one-shot timer bound to a Simulator, and the one
// way code outside this package holds an event it may cancel or re-arm
// (At and Schedule return nothing): MAC timeouts, DCF's DIFS and backoff
// countdown, PSM's pre-TBTT wakeup, ARQ retransmission timers and OS-level
// inactivity timeouts are all "fire unless something resets me first"
// patterns.
//
// The Timer keeps the kernel's handle on its pending expiry and schedules
// fn itself, with no wrapper: step releases an event's slot before it runs
// the callback, so inside fn the handle is already inert (Armed is false,
// Deadline is MaxTime, Stop returns false) and a Reset from fn schedules
// afresh.
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
	event handle
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
	armed := t.sim.cancel(t.event)
	t.event = handle{} // later reads of a stopped timer touch no slab slot
	return armed
}

// Armed reports whether the timer currently has a pending expiry.
func (t *Timer) Armed() bool { return t.sim.liveLease(t.event) != nil }

// Deadline returns the pending expiry instant, or MaxTime when the timer
// is not armed.
func (t *Timer) Deadline() Time {
	if e := t.sim.liveLease(t.event); e != nil {
		return e.at
	}
	return MaxTime
}

// Ticker repeatedly invokes a callback at a fixed period until stopped.
// The callback runs first at start+period. A Ticker is a Timer whose
// callback re-arms it: the fired event's slot is already released when the
// tick runs, so the re-arm schedules afresh under the sequence number a
// plain Schedule would take there, and a steady ticker allocates nothing.
// Stop cancels the pending tick, so a stopped ticker never runs fn again,
// even when fn itself stops it.
type Ticker struct {
	timer Timer
	live  bool
}

// NewTicker creates and starts a ticker with the given period.
func NewTicker(s *Simulator, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	if fn == nil {
		panic("sim: nil ticker function")
	}
	t := &Ticker{live: true}
	t.timer = Timer{sim: s, fn: func() {
		fn()
		if t.live { // fn may have stopped the ticker
			t.timer.Reset(period)
		}
	}}
	t.timer.Reset(period)
	return t
}

// Stop halts the ticker; no further callbacks run.
func (t *Ticker) Stop() {
	t.live = false
	t.timer.Stop()
}
