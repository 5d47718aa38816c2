package sim

import (
	"fmt"
	"math/rand"
)

// Event states. A slot's state outlives its stay in the queue: after an
// event fires or its cancellation is collected, the slot keeps the final
// state (and its generation) until the free list hands it out again, so
// stale Handles still answer Pending/Cancelled correctly in the meantime.
const (
	statePending uint32 = iota + 1
	stateFired
	stateCancelled

	// stateBits is how many low bits of event.gs hold the state; the
	// remaining 30 bits hold the lease generation.
	stateBits = 2
	stateMask = 1<<stateBits - 1
	genStep   = 1 << stateBits // adding genStep to gs bumps the generation
)

// event is one pooled slot in the simulator's slab. Slots are recycled
// through a free list; the generation counts leases so that Handles from a
// previous lease go inert instead of acting on the slot's new occupant. The
// next field is the free-list link while the slot is released.
//
// The slot is exactly 32 bytes on 64-bit platforms — two per cache line. The generation and state are
// packed into one word (gs = generation<<stateBits | state): they are always
// read and written together on the lease/release path, and the packing is
// what gets the slot from 40 to 32 bytes. At metro scale (10⁵–10⁶ station
// populations) the slab is the kernel's dominant working set, so the 20%
// shrink is directly more slots per cache line and per TLB page.
type event struct {
	at   Time
	fn   func()
	seq  uint64
	next int32  // free-list link when released
	gs   uint32 // generation<<stateBits | state
}

// state extracts the slot's lifecycle state from the packed word.
func (e *event) state() uint32 { return e.gs & stateMask }

// setState replaces the state bits, leaving the generation untouched.
func (e *event) setState(st uint32) { e.gs = e.gs&^stateMask | st }

// gen extracts the slot's lease generation from the packed word.
func (e *event) gen() uint32 { return e.gs >> stateBits }

// Handle identifies one scheduled event. It is a small value (copy freely;
// the zero Handle refers to no event) carrying the slot index and the lease
// generation: once the event has fired or its cancellation has been
// collected and the slot reused, the generation no longer matches and the
// Handle becomes inert — Cancel is a no-op and the predicates return false.
type Handle struct {
	s   *Simulator
	idx int32
	gen uint32
}

// lease returns the slot if the handle still refers to its own lease.
func (h Handle) lease() *event {
	if h.s == nil {
		return nil
	}
	e := &h.s.slab[h.idx]
	if e.gen() != h.gen {
		return nil
	}
	return e
}

// Pending reports whether the event is still queued to fire.
func (h Handle) Pending() bool {
	e := h.lease()
	return e != nil && e.state() == statePending
}

// Cancelled reports whether the event was cancelled before it fired. A
// fired event reports false. Once the kernel reuses the underlying slot the
// handle is inert and also reports false.
func (h Handle) Cancelled() bool {
	e := h.lease()
	return e != nil && e.state() == stateCancelled
}

// At returns the instant the event is (or was) scheduled to fire, or 0 for
// an inert handle. Guard with Pending when the distinction matters.
func (h Handle) At() Time {
	if e := h.lease(); e != nil {
		return e.at
	}
	return 0
}

// heapEntry is one element of the pending-event heap, ordered by (at, seq).
// The sort keys are stored inline so heap sifting never chases slab
// pointers.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

func entryLess(a, b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// compactMinDead keeps small queues from compacting every few cancels:
// below this many dead entries, collecting them as they surface at the
// heap top is cheaper than a rebuild. Compaction triggers once dead
// entries both reach this floor and outnumber the live ones.
const compactMinDead = 64

// Tuning is an empty placeholder: the kernel has no settable knobs.
//
// Deprecated: only bench/layers.go (tuningOf, camLeg) still names it. The
// next benchmark change (ROADMAP.md, "Next benchmark change") drops that
// use and deletes Tuning.
type Tuning struct{}

// DefaultTuning returns the zero Tuning.
//
// Deprecated: only bench/layers.go (tuningOf) still calls it. The next
// benchmark change (ROADMAP.md, "Next benchmark change") deletes it.
func DefaultTuning() Tuning { return Tuning{} }

// NewTuned is New; the tuning is ignored.
//
// Deprecated: use New. Only bench/layers.go (camLeg, the metro probe)
// still calls it. The next benchmark change (ROADMAP.md, "Next benchmark
// change") deletes it.
func NewTuned(seed int64, _ Tuning) *Simulator { return New(seed) }

// Simulator is a deterministic discrete-event simulation kernel. It owns the
// virtual clock, the pending-event queue and a seeded random source shared by
// all stochastic models so runs reproduce exactly for a given seed.
//
// The pending queue is a front register plus one binary heap, both ordered
// by (at, seq). The front register caches the next event to fire whenever
// it was scheduled against an empty queue, so the single-event-in-flight
// patterns (timers, tickers, event chains) never touch the heap; everything
// else waits in the heap. The paper's models run at beacon and epoch scale
// with shallow queues, where a bucketed timing wheel bought no end-to-end
// speed (see EXPERIMENTS.md, "Event queue").
//
// The kernel performs no steady-state allocations: event slots live in a
// slab recycled through a free list, and cancellation is lazy — Cancel
// marks the slot dead in O(1) and the heap drops dead entries when they
// surface (or in a bulk compaction once they outnumber the live ones),
// instead of an O(log n) removal per cancel.
//
// Simulator is not safe for concurrent use; the entire simulation executes on
// a single goroutine, which is what makes determinism cheap.
type Simulator struct {
	now   Time
	slab  []event
	free  int32 // head of the released-slot list, -1 when empty
	nFree int   // length of the released-slot list

	// front is the cached next-to-fire entry: it is always ≤ every entry
	// in queue.
	front    heapEntry
	hasFront bool

	queue []heapEntry // (at, seq) heap of every other pending entry
	dead  int         // cancelled entries still sitting in queue

	seq     uint64
	rng     *rand.Rand
	stopped bool
	fired   uint64
	limit   uint64 // safety valve against runaway event loops; 0 = unlimited
}

// New creates a simulator seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed)), free: -1}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand exposes the simulator's deterministic random source. All model
// randomness must come from here; do not use the global rand functions.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Pending returns the number of live (non-cancelled) events currently
// queued.
func (s *Simulator) Pending() int {
	n := len(s.queue) - s.dead
	if s.hasFront {
		n++
	}
	return n
}

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// SetEventLimit installs a safety valve: Run panics after firing more than n
// events, which turns accidental infinite event loops into a loud failure.
// n = 0 disables the limit.
func (s *Simulator) SetEventLimit(n uint64) { s.limit = n }

// acquire leases a slot for a new pending event, reusing a released slot
// when one is available. The steady-state (free-list) path must stay
// inlineable — the cold slab-append lives in acquireSlow to keep it so.
func (s *Simulator) acquire(at Time, fn func()) (int32, uint32) {
	idx := s.free
	if idx < 0 {
		return s.acquireSlow(at, fn)
	}
	e := &s.slab[idx]
	s.free = e.next
	s.nFree--
	// One write bumps the generation and installs the pending state.
	gs := e.gs&^stateMask + genStep | statePending
	e.gs = gs
	e.at, e.fn, e.seq = at, fn, s.seq
	return idx, gs >> stateBits
}

// acquireSlow grows the slab when the free list is empty.
func (s *Simulator) acquireSlow(at Time, fn func()) (int32, uint32) {
	s.slab = append(s.slab, event{at: at, fn: fn, seq: s.seq, gs: statePending})
	return int32(len(s.slab) - 1), 0
}

// release retires a slot that has left the queue. The final state stays
// readable through old Handles until the slot is leased again.
func (s *Simulator) release(idx int32, final uint32) {
	e := &s.slab[idx]
	e.setState(final)
	e.fn = nil // drop the closure so it can be collected
	e.next = s.free
	s.free = idx
	s.nFree++
}

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics, because silently reordering events would
// corrupt causality.
func (s *Simulator) At(t Time, fn func()) Handle {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	idx, gen := s.acquire(t, fn)
	en := heapEntry{at: t, seq: s.seq, idx: idx}
	s.seq++
	switch {
	case s.hasFront:
		if entryLess(en, s.front) {
			// The new event precedes the cached minimum: swap them. The
			// displaced front is still ≤ everything already queued, so the
			// front invariant survives in both directions.
			en, s.front = s.front, en
		}
		s.heapPush(en)
	case len(s.queue) == 0:
		s.front, s.hasFront = en, true
	default:
		// The front register is only trustworthy as the queue minimum when
		// it was populated against an empty queue; with entries already in
		// the heap it stays vacant until the heap drains.
		s.heapPush(en)
	}
	return Handle{s: s, idx: idx, gen: gen}
}

// Schedule schedules fn to run delay after the current time.
func (s *Simulator) Schedule(delay Time, fn func()) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return s.At(s.now+delay, fn)
}

// Cancel marks a pending event dead in O(1); the queue discards the entry
// when it surfaces, or earlier during a bulk compaction. Cancelling an
// already-fired, already-cancelled or inert handle is a no-op, so callers
// can cancel defensively.
func (s *Simulator) Cancel(h Handle) {
	if h.s != s { // covers the zero Handle and cross-simulator misuse
		return
	}
	e := &s.slab[h.idx]
	if e.gen() != h.gen || e.state() != statePending {
		return
	}
	if s.hasFront && s.front.idx == h.idx {
		// The front register is a single entry, so eager removal is O(1).
		s.hasFront = false
		s.release(h.idx, stateCancelled)
		return
	}
	e.setState(stateCancelled)
	s.dead++
	s.maybeCompact()
}

// maybeCompact rebuilds the heap without its dead entries once they
// outnumber the live ones. Compaction preserves nothing about the heap's
// layout, but pop order is the total (at, seq) order either way, so it is
// invisible to the simulation.
func (s *Simulator) maybeCompact() {
	if s.dead < compactMinDead || s.dead*2 <= len(s.queue) {
		return
	}
	kept := s.queue[:0]
	for _, en := range s.queue {
		if s.slab[en.idx].state() == statePending {
			kept = append(kept, en)
		} else {
			s.release(en.idx, stateCancelled)
		}
	}
	s.queue = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	s.dead = 0
}

// Stop makes Run/RunUntil return after the currently executing event
// completes. Pending events remain queued.
func (s *Simulator) Stop() { s.stopped = true }

// limitExceeded is the event-limit panic, kept out of line so the firing
// path in step stays small.
func (s *Simulator) limitExceeded() {
	panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", s.limit, s.now))
}

// step pops and fires the next event. It reports false when the queue is
// empty or only holds events after horizon. A dead entry that surfaces is
// collected without firing (and without advancing the clock), counting as
// one step.
func (s *Simulator) step(horizon Time) bool {
	var en heapEntry // the live entry to fire
	if s.hasFront {
		if s.front.at > horizon {
			return false
		}
		en = s.front
		s.hasFront = false
	} else {
		if len(s.queue) == 0 {
			return false
		}
		en = s.queue[0]
		if s.slab[en.idx].state() != statePending {
			s.heapPopTop()
			s.dead--
			s.release(en.idx, stateCancelled)
			return true
		}
		if en.at > horizon {
			return false
		}
		s.heapPopTop()
	}
	// Fire: release the slot first so the callback can schedule into it.
	e := &s.slab[en.idx]
	fn := e.fn
	s.release(en.idx, stateFired)
	s.now = en.at
	s.fired++
	if s.limit != 0 && s.fired > s.limit {
		s.limitExceeded()
	}
	fn()
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.step(MaxTime) {
	}
}

// RunUntil executes events with timestamps ≤ horizon, then advances the clock
// to horizon. Events scheduled after horizon remain queued.
func (s *Simulator) RunUntil(horizon Time) {
	if horizon < s.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", horizon, s.now))
	}
	s.stopped = false
	for !s.stopped && s.step(horizon) {
	}
	if !s.stopped && s.now < horizon {
		s.now = horizon
	}
}

// --- the (at, seq) binary heap ---

func (s *Simulator) heapPush(en heapEntry) {
	s.queue = append(s.queue, en)
	s.siftUp(len(s.queue) - 1)
}

// heapPopTop removes the root entry.
func (s *Simulator) heapPopTop() {
	n := len(s.queue) - 1
	s.queue[0] = s.queue[n]
	s.queue = s.queue[:n]
	if n > 0 {
		s.siftDown(0)
	}
}

func (s *Simulator) siftUp(i int) {
	h := s.queue
	en := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(en, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = en
}

func (s *Simulator) siftDown(i int) {
	h := s.queue
	n := len(h)
	en := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && entryLess(h[r], h[c]) {
			c = r
		}
		if !entryLess(h[c], en) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = en
}
