package sim

import (
	"fmt"
	"math/bits"
)

// Event states. A slot's state outlives its stay in the queue: after an
// event fires or its cancellation is collected, the slot keeps the final
// state (and its generation) until the free list hands it out again, so
// stale Handles still answer Pending/Cancelled correctly in the meantime.
const (
	statePending uint32 = iota + 1
	stateFired
	stateCancelled
	// stateMoved is a pending event that a Timer moved later in place: the
	// slot holds its real (at, seq), its heap entry still the earlier key
	// it was queued under. The entry is re-keyed when it reaches the top
	// of the heap, so the path that fires live entries never checks for it.
	stateMoved

	// stateBits is how many low bits of event.gs hold the state; the
	// remaining 29 bits hold the lease generation.
	stateBits = 3
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

// live reports whether the event is still due to fire: pending, or moved
// later in place.
func (e *event) live() bool {
	st := e.state()
	return st == statePending || st == stateMoved
}

// Handle identifies one scheduled event. It is a small value (copy freely;
// the zero Handle refers to no event) carrying the slot index and the lease
// generation: once the event has fired or its cancellation has been
// collected and the slot reused, the generation no longer matches and the
// Handle becomes inert — cancel is a no-op and the predicates return false.
// Model code that may cancel or re-arm an event holds a Timer instead.
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
	return e != nil && e.live()
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
// slab recycled through a free list, and cancellation is lazy — cancel
// marks the slot dead in O(1) and the heap drops dead entries when they
// surface (or in a bulk compaction once they outnumber the live ones),
// instead of an O(log n) removal per cancel.
//
// Two patterns skip the heap work a cancel-and-schedule would cost. A Timer
// re-armed no earlier than its pending expiry moves its event in place: the
// slot takes the new (at, seq) and the heap entry keeps its earlier key,
// still a lower bound, until it reaches the top and is re-keyed there. A
// Line holds callbacks due at strictly increasing instants (a link's
// deliveries) and keeps only its first two in the queue. Each takes the
// sequence number a plain At would take at the same point of the run, so
// neither changes the order anything fires in.
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
	stopped bool
	// horizon is the latest instant the running loop may still reach: the
	// RunUntil argument, MaxTime under Run, and now after Stop or outside
	// any loop. Lookahead caps its answers here.
	horizon Time
	fired   uint64
	limit   uint64 // safety valve against runaway event loops; 0 = unlimited

	rng Rand // last: its 4.9 KB register would push the fields above apart
}

// New creates a simulator seeded with seed.
func New(seed int64) *Simulator {
	s := &Simulator{free: -1}
	s.rng.src.Seed(seed)
	return s
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand exposes the simulator's deterministic random stream. All model
// randomness must come from here or from NewRand; do not use the global
// rand functions. It is a concrete Rand held inside the Simulator, so a
// draw is a direct call with no interface dispatch and sim.New allocates
// no separate stream. Its Intn and Float64 draw math/rand's exact values,
// its ExpFloat64 math/rand's within an ulp (see Rand), and it seeds about
// 3.5 times faster than rand.NewSource, which matters when a job runs for
// a tenth of a millisecond. TestRandMatchesMathRand and
// TestSourceMatchesMathRand hold it to math/rand.
func (s *Simulator) Rand() *Rand { return &s.rng }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// acquire leases a slot for a new pending event, reusing a released slot
// when one is available. The steady-state (free-list) path must stay
// inlineable — the cold slab-append lives in acquireSlow to keep it so.
func (s *Simulator) acquire(at Time, seq uint64, fn func()) (int32, uint32) {
	idx := s.free
	if idx < 0 {
		return s.acquireSlow(at, seq, fn)
	}
	e := &s.slab[idx]
	s.free = e.next
	s.nFree--
	// One write bumps the generation and installs the pending state.
	gs := e.gs&^stateMask + genStep | statePending
	e.gs = gs
	e.at, e.fn, e.seq = at, fn, seq
	return idx, gs >> stateBits
}

// acquireSlow grows the slab when the free list is empty.
func (s *Simulator) acquireSlow(at Time, seq uint64, fn func()) (int32, uint32) {
	s.slab = append(s.slab, event{at: at, fn: fn, seq: seq, gs: statePending})
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
	s.seq++
	return s.queueAt(t, s.seq-1, fn)
}

// queueAt queues fn at (t, seq), a position At reserved earlier or is
// taking now. A Line queues its items under the sequence numbers their
// pushes reserved, so they fire where plain At calls would have.
func (s *Simulator) queueAt(t Time, seq uint64, fn func()) Handle {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	idx, gen := s.acquire(t, seq, fn)
	en := heapEntry{at: t, seq: seq, idx: idx}
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

// Reserve grows the event slab's spare capacity to at least n slots so a
// coming burst of schedules will not reallocate it. Recycled free-list
// slots count toward the guarantee, so repeated reservations on a warmed
// simulator (one transfer per adaptive-ARQ epoch, say) are no-ops.
//
// Capacity is rounded up to the next power of two: a model attaching many
// small groups one at a time (metro-scale station churn, one Reserve per
// association) performs O(log n) slab copies across its lifetime instead of
// one full copy per Reserve.
func (s *Simulator) Reserve(n int) {
	need := n - s.nFree // append capacity needed beyond recycled slots
	if need > 0 && cap(s.slab)-len(s.slab) < need {
		grown := make([]event, len(s.slab), nextPow2(len(s.slab)+need))
		copy(grown, s.slab)
		s.slab = grown
	}
}

// nextPow2 rounds n up to the next power of two, so repeated small
// reservations grow the slab geometrically — O(log n) copies total —
// instead of copying the whole backing array on every call.
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// cancel marks a pending event dead in O(1); the queue discards the entry
// when it surfaces, or earlier during a bulk compaction. Cancelling an
// already-fired, already-cancelled or inert handle is a no-op, so callers
// can cancel defensively. Code outside the package cancels through a
// Timer or a Ticker.
func (s *Simulator) cancel(h Handle) {
	if e := s.liveLease(h); e != nil {
		s.kill(h.idx, e)
	}
}

// liveLease returns h's slot if h is a lease on s whose event is still due
// to fire, or nil.
func (s *Simulator) liveLease(h Handle) *event {
	if h.s != s { // covers the zero Handle and cross-simulator misuse
		return nil
	}
	e := &s.slab[h.idx]
	if e.gen() != h.gen || !e.live() {
		return nil
	}
	return e
}

// kill cancels the live event in slot idx.
func (s *Simulator) kill(idx int32, e *event) {
	if s.hasFront && s.front.idx == idx {
		// The front register is a single entry, so eager removal is O(1).
		s.hasFront = false
		s.release(idx, stateCancelled)
		return
	}
	e.setState(stateCancelled)
	s.dead++
	s.maybeCompact()
}

// rearm replaces h's event, if it is still live, with fn due at t, and
// returns the re-armed event's handle. The re-armed event takes the
// sequence number a plain At would take now, so it fires exactly where
// cancel-then-At would put it. A live event waiting in the heap that moves
// to an instant no earlier than its current one moves in place: its slot
// takes the new (at, seq) and keeps its handle, while its heap entry keeps
// the earlier key, which still bounds the real one from below, until it
// reaches the top (settleTop). Any other re-arm cancels and schedules.
func (s *Simulator) rearm(h Handle, t Time, fn func()) Handle {
	if e := s.liveLease(h); e != nil {
		if t >= e.at && !(s.hasFront && s.front.idx == h.idx) {
			e.at, e.seq = t, s.seq
			s.seq++
			e.setState(stateMoved)
			return h
		}
		s.kill(h.idx, e)
	}
	return s.At(t, fn)
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
		switch e := &s.slab[en.idx]; e.state() {
		case statePending:
			kept = append(kept, en)
		case stateMoved:
			e.setState(statePending)
			kept = append(kept, heapEntry{at: e.at, seq: e.seq, idx: en.idx})
		default:
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
func (s *Simulator) Stop() {
	s.stopped = true
	s.horizon = s.now
}

// SetEventLimit installs a safety valve: Run panics after firing more than n
// events, which turns accidental infinite event loops into a loud failure.
// n = 0 disables the limit.
func (s *Simulator) SetEventLimit(n uint64) { s.limit = n }

// limitExceeded is the event-limit panic, kept out of line so the firing
// path in step stays small.
func (s *Simulator) limitExceeded() {
	panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", s.limit, s.now))
}

// collectDeadTop settles the heap's top until its root is pending under
// its real key (or the heap is empty), as step would when the entries
// surface. Settling them early is invisible: pop order is the (at, seq)
// order of the live events either way.
func (s *Simulator) collectDeadTop() {
	for len(s.queue) > 0 {
		idx := s.queue[0].idx
		if s.slab[idx].state() == statePending {
			return
		}
		s.settleTop(idx)
	}
}

// settleTop deals with a heap root, slot idx, that is not pending under its
// key: a cancelled one is collected, a moved one takes its real (at, seq)
// and sifts down to its place.
func (s *Simulator) settleTop(idx int32) {
	e := &s.slab[idx]
	if e.state() == stateMoved {
		e.setState(statePending)
		s.queue[0] = heapEntry{at: e.at, seq: e.seq, idx: idx}
		s.siftDown(0)
		return
	}
	s.heapPopTop()
	s.dead--
	s.release(idx, stateCancelled)
}

// step pops and fires the next event. It reports false when the queue is
// empty or only holds events after horizon. A dead or moved entry that
// surfaces is settled without firing (and without advancing the clock),
// counting as one step.
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
			s.settleTop(en.idx)
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
	s.stopped, s.horizon = false, MaxTime
	for !s.stopped && s.step(MaxTime) {
	}
	s.horizon = s.now
}

// RunUntil executes events with timestamps ≤ horizon, then advances the clock
// to horizon. Events scheduled after horizon remain queued.
func (s *Simulator) RunUntil(horizon Time) {
	if horizon < s.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", horizon, s.now))
	}
	s.stopped, s.horizon = false, horizon
	for !s.stopped && s.step(horizon) {
	}
	if !s.stopped && s.now < horizon {
		s.now = horizon
	}
	s.horizon = s.now
}

// Lookahead reports what the queue holds next, as far as the running loop
// can see: first is the earliest queued instant, n how many live entries
// are queued at first, and next the earliest live instant after first.
// Each instant is capped at the loop's horizon (the RunUntil argument,
// MaxTime under Run, now after Stop or outside any loop), and n is 0 when
// the earliest entry lies beyond it. Cancelled entries still in the heap
// count for nothing and moved ones count at their real instant: the walk
// settles those on top of the heap and reads through the rest, so the
// answer is exact for the live events. A Line's items beyond its first two
// are not queued, but they fall after the second, so they never change
// the answer.
//
// A model may use the answer to batch work it would otherwise spread over
// events at instants before first: no other code can act in between, and
// nothing outside the event loop can act before the horizon.
func (s *Simulator) Lookahead() (first Time, n int, next Time) {
	first, next = MaxTime, MaxTime
	s.collectDeadTop()
	if s.hasFront {
		first, n = s.front.at, 1
	}
	if len(s.queue) > 0 {
		// The front register is ≤ every heap entry, so the heap can only
		// tie it or, with the register vacant, supply the minimum.
		if top := s.queue[0].at; top > first {
			next = top
		} else {
			first = top
			n += s.countAt(0, top, &next)
		}
	}
	if first > s.horizon {
		return s.horizon, 0, s.horizon
	}
	return first, n, min(next, s.horizon)
}

// countAt counts the live heap events at t, the heap's minimum instant, in
// the subtree rooted at i, and lowers *next to the earliest later live
// instant it meets. The entries keyed at the minimum form a connected
// subtree under the root, so the walk visits only them and, below them,
// what earliestLive visits. A moved entry counts at its real instant.
func (s *Simulator) countAt(i int, t Time, next *Time) int {
	if i >= len(s.queue) {
		return 0
	}
	en := s.queue[i]
	if en.at != t {
		s.earliestLive(i, next)
		return 0
	}
	n := s.countAt(2*i+1, t, next) + s.countAt(2*i+2, t, next)
	switch e := &s.slab[en.idx]; e.state() {
	case statePending:
		n++
	case stateMoved:
		if e.at == t {
			n++
		} else {
			*next = min(*next, e.at)
		}
	}
	return n
}

// earliestLive lowers *next to the earliest live instant in the subtree
// rooted at i. No key precedes its ancestor's, and a key never follows its
// event's real instant, so the walk stops at a pending entry, at an entry
// keyed no earlier than *next, and at a leaf: it only descends through
// cancelled and moved entries. Compaction keeps the cancelled ones to at
// most half the heap (or fewer than compactMinDead), and each Timer has at
// most one moved entry.
func (s *Simulator) earliestLive(i int, next *Time) {
	if i >= len(s.queue) {
		return
	}
	en := s.queue[i]
	if en.at >= *next {
		return
	}
	switch e := &s.slab[en.idx]; e.state() {
	case statePending:
		*next = en.at
		return
	case stateMoved:
		*next = min(*next, e.at)
	}
	s.earliestLive(2*i+1, next)
	s.earliestLive(2*i+2, next)
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
