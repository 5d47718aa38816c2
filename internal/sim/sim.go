package sim

import (
	"fmt"
	"math/bits"
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
// next field doubles as the free-list link while the slot is released and as
// the FIFO bucket link while the event waits in the timing wheel.
//
// The slot is exactly 32 bytes on 64-bit platforms — two per cache line —
// with the sort keys (at, seq) inline so heap sifting and bucket staging
// never touch a second cache line per entry. The generation and state are
// packed into one word (gs = generation<<stateBits | state): they are always
// read and written together on the lease/release path, and the packing is
// what gets the slot from 40 to 32 bytes. At metro scale (10⁵–10⁶ station
// populations) the slab is the kernel's dominant working set, so the 20%
// shrink is directly more slots per cache line and per TLB page.
type event struct {
	at   Time
	fn   func()
	seq  uint64
	next int32  // free-list link when released; bucket FIFO link when queued
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

// heapEntry is one element of the due/overflow heaps, ordered by (at, seq).
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

// bucketRef is one timing-wheel bucket: a FIFO of slab indices linked
// through the events' next fields. Indices are stored biased by +1 so the
// zero value means empty — a fresh wheel needs no initialization pass.
type bucketRef struct {
	head, tail int32 // slab index + 1; 0 = empty
}

// Tuning exposes the kernel's performance knobs. Every experiment runs on
// DefaultTuning; other values serve the kernel's own tests and workloads
// (the adaptive metro benchmarks, the hostile reference-model shapes). See
// EXPERIMENTS.md ("Kernel tuning knobs"). Every tuning produces the
// identical event order — these knobs trade memory for speed, never
// determinism.
type Tuning struct {
	// TickShift is log2 of the wheel tick in microseconds: events whose
	// firing tick (at >> TickShift) is within the wheel span go into O(1)
	// FIFO buckets instead of the overflow heap. 0 means 1 µs ticks —
	// exact bucketing with no intra-tick sorting work. Larger values
	// widen the span at the cost of a small per-tick ordering heap.
	TickShift uint
	// WheelBits is log2 of the bucket count; the wheel spans
	// 2^(WheelBits+TickShift) microseconds of near future. Default 10
	// (1024 buckets ≈ 1 ms at TickShift 0): MAC-scale timers — SIFS/DIFS
	// gaps, slot countdowns, ACK timeouts — stay in the wheel, while
	// beacon-scale events ride the overflow heap.
	WheelBits uint
	// CompactMinDead keeps tiny queues from compacting on every few
	// cancels; below this many dead entries the staging-time skip handles
	// them cheaply. Compaction triggers once dead entries both reach this
	// floor and outnumber the live ones.
	CompactMinDead int
	// WheelMinPending is the queue depth at which near-future events
	// start using the wheel. Below it everything rides the plain binary
	// heap: for a handful of pending events the heap fits in one or two
	// cache lines and beats touching an 8 KB bucket array, while the
	// wheel's O(1) buckets win once many short timers are in flight.
	// Routing is a pure policy choice — pop order is enforced against
	// every structure, so any value produces the identical simulation.
	//
	// The sentinel WheelAdaptive selects adaptive routing: the kernel
	// tracks a decaying filter of the queue depth and engages the wheel
	// only when the depth is *sustained* above the default threshold.
	// Workloads that alternate sparse phases (a handful of aggregated
	// process events) with dense bursts skip all wheel maintenance in the
	// sparse phases without being flipped into wheel mode by a lone
	// burst, and without the caller having to guess a fixed threshold.
	WheelMinPending int
}

// WheelAdaptive is the WheelMinPending sentinel that turns on adaptive
// wheel routing. Like every tuning value it changes constant factors only:
// pop order is enforced against all structures, so the adaptive and any
// fixed setting produce bit-identical simulations.
const WheelAdaptive = -1

// adaptiveFiltShift is the decay of the adaptive depth filter: on every
// near-future insert the filter moves 1/8th of the way toward the current
// queue depth, so roughly the last two dozen inserts dominate it.
const adaptiveFiltShift = 3

// DefaultTuning returns the tuning every experiment runs on.
func DefaultTuning() Tuning {
	return Tuning{TickShift: 0, WheelBits: 10, CompactMinDead: 64, WheelMinPending: 16}
}

// Validate checks the tuning for representable, non-degenerate values.
func (t Tuning) Validate() error {
	if t.WheelBits < 1 || t.WheelBits > 20 {
		return fmt.Errorf("sim: WheelBits %d outside [1, 20]", t.WheelBits)
	}
	if t.TickShift > 30 {
		return fmt.Errorf("sim: TickShift %d outside [0, 30]", t.TickShift)
	}
	if t.CompactMinDead < 1 {
		return fmt.Errorf("sim: CompactMinDead must be positive")
	}
	if t.WheelMinPending < 0 && t.WheelMinPending != WheelAdaptive {
		return fmt.Errorf("sim: WheelMinPending must be non-negative or WheelAdaptive")
	}
	return nil
}

// Simulator is a deterministic discrete-event simulation kernel. It owns the
// virtual clock, the pending-event queue and a seeded random source shared by
// all stochastic models so runs reproduce exactly for a given seed.
//
// The pending queue is a hierarchical timing wheel. The next event to fire
// sits in a front register; near-future events (within the wheel span) live
// in per-tick FIFO buckets linked through the slab, with an occupancy
// bitmap locating the next non-empty tick; far-future events wait in an
// overflow heap and are staged into the wheel's firing path when their tick
// comes up. Everything fires in exact (at, seq) order — the wheel is
// invisible to the simulation, it only changes the constant factors.
//
// The kernel performs no steady-state allocations: event slots live in a
// slab recycled through a free list, and cancellation is lazy — Cancel
// marks the slot dead in O(1) and the queue drops dead entries when they
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
	// in due/wheel/overflow, so the single-event-in-flight patterns
	// (timers, tickers, event chains) never touch the wheel at all.
	front    heapEntry
	hasFront bool

	due      []heapEntry // (at, seq) heap of the tick currently being fired
	wheel    []bucketRef // near-future FIFO buckets, one per tick; lazily allocated
	occ      []uint64    // occupancy bitmap over wheel buckets
	overflow []heapEntry // (at, seq) heap of events beyond the wheel span
	nWheel   int         // entries (live + dead) currently in wheel buckets
	size     int64       // bucket count (1 << Tuning.WheelBits)

	// wheelHint is a lower bound on the earliest live wheel tick, so the
	// occupancy scan starts where the events are instead of walking empty
	// buckets from the current tick — the difference between O(1) and
	// O(span/64) per staging when wheel residents are sparse (a lone
	// millisecond ticker, say). Inserts lower it, scans tighten it.
	wheelHint int64

	tickShift       uint
	mask            int64 // size - 1
	compactMinDead  int
	wheelMinPending int
	adaptive        bool // WheelAdaptive routing: threshold on filtered depth
	depthFilt       int  // decaying depth filter ≈ 2^adaptiveFiltShift × depth

	dead    int // cancelled entries still sitting in due/wheel/overflow
	seq     uint64
	rng     *rand.Rand
	stopped bool
	fired   uint64
	limit   uint64 // safety valve against runaway event loops; 0 = unlimited
}

// New creates a simulator with the default tuning, seeded with seed.
func New(seed int64) *Simulator {
	return NewTuned(seed, DefaultTuning())
}

// NewTuned creates a simulator with explicit kernel tuning. Invalid tunings
// panic: a tuning is build-time configuration, not runtime input.
func NewTuned(seed int64, t Tuning) *Simulator {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	size := int64(1) << t.WheelBits
	minPending, adaptive := t.WheelMinPending, false
	if minPending == WheelAdaptive {
		// Adaptive routing compares the depth filter against the default
		// threshold instead of the instantaneous depth.
		minPending, adaptive = DefaultTuning().WheelMinPending, true
	}
	// The bucket array and bitmap are allocated on the first near-future
	// insert: sparse workloads whose events all live beyond the wheel span
	// run pure heap and never pay for the wheel.
	return &Simulator{
		rng:             rand.New(rand.NewSource(seed)),
		free:            -1,
		size:            size,
		tickShift:       t.TickShift,
		mask:            size - 1,
		compactMinDead:  t.CompactMinDead,
		wheelMinPending: minPending,
		adaptive:        adaptive,
	}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand exposes the simulator's deterministic random source. All model
// randomness must come from here; do not use the global rand functions.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Pending returns the number of live (non-cancelled) events currently
// queued.
func (s *Simulator) Pending() int {
	n := len(s.due) + s.nWheel + len(s.overflow) - s.dead
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
	if s.hasFront {
		if entryLess(en, s.front) {
			// The new event precedes the cached minimum: swap them. The
			// displaced front is still ≤ everything already queued, so the
			// front invariant survives in both directions.
			en, s.front = s.front, en
			s.push(en)
		} else {
			s.push(en)
		}
	} else if len(s.due) == 0 && s.nWheel == 0 && len(s.overflow) == 0 {
		s.front, s.hasFront = en, true
	} else {
		// The front register is only trustworthy as the queue minimum when
		// it was populated against an empty queue; with entries already in
		// the structures it stays vacant until the queue drains.
		s.push(en)
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

// push routes a pending entry into the due heap, a wheel bucket or the
// overflow heap according to how far ahead its tick lies.
func (s *Simulator) push(en heapEntry) {
	tick := int64(en.at) >> s.tickShift
	nowTick := int64(s.now) >> s.tickShift
	switch d := tick - nowTick; {
	case d == 0:
		// The event lands in the tick currently being fired. Anything for
		// this tick still waiting in its bucket or atop the overflow heap
		// must be staged first, or the due heap would hide it.
		s.stageTick(tick)
		s.heapPush(&s.due, en)
	case d <= s.mask:
		if s.nWheel == 0 {
			// Sparse queue: the plain heap is cache-tighter than the
			// bucket array. Routing is policy only — order is enforced
			// at pop time against every structure. In adaptive mode the
			// threshold tests a decaying depth filter instead of the
			// instantaneous depth, so sparse phases skip all wheel
			// maintenance even across short bursts, and sustained dense
			// phases engage the wheel and stay on it.
			depth := len(s.overflow) + len(s.due)
			if s.adaptive {
				s.depthFilt += depth - s.depthFilt>>adaptiveFiltShift
				depth = s.depthFilt >> adaptiveFiltShift
			}
			if depth < s.wheelMinPending {
				s.heapPush(&s.overflow, en)
				return
			}
		}
		if s.wheel == nil {
			s.wheel = make([]bucketRef, s.size)
			s.occ = make([]uint64, (s.size+63)/64)
		}
		if s.nWheel == 0 || tick < s.wheelHint {
			s.wheelHint = tick
		}
		b := tick & s.mask
		e := &s.slab[en.idx]
		e.next = -1
		if bkt := &s.wheel[b]; bkt.head == 0 {
			bkt.head, bkt.tail = en.idx+1, en.idx+1
			s.occ[b>>6] |= 1 << uint(b&63)
		} else {
			s.slab[bkt.tail-1].next = en.idx
			bkt.tail = en.idx + 1
		}
		s.nWheel++
	default:
		s.heapPush(&s.overflow, en)
	}
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

// maybeCompact rebuilds the queue structures without their dead entries
// once they outnumber the live ones. Compaction preserves nothing about the
// internal layout, but pop order is the total (at, seq) order either way,
// so it is invisible to the simulation.
func (s *Simulator) maybeCompact() {
	if s.dead < s.compactMinDead || s.dead*2 <= len(s.due)+s.nWheel+len(s.overflow) {
		return
	}
	s.compactHeap(&s.due)
	s.compactHeap(&s.overflow)
	for w, word := range s.occ {
		for word != 0 {
			b := int64(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			s.compactBucket(b)
		}
	}
	s.dead = 0
}

// compactHeap filters a heap's dead entries in place and restores the heap
// property over the survivors.
func (s *Simulator) compactHeap(h *[]heapEntry) {
	kept := (*h)[:0]
	for _, en := range *h {
		if s.slab[en.idx].state() == statePending {
			kept = append(kept, en)
		} else {
			s.release(en.idx, stateCancelled)
		}
	}
	*h = kept
	for i := len(*h)/2 - 1; i >= 0; i-- {
		s.siftDown(*h, i)
	}
}

// compactBucket relinks a wheel bucket keeping only pending events.
func (s *Simulator) compactBucket(b int64) {
	bkt := &s.wheel[b]
	head, tail := int32(-1), int32(-1)
	for idx := bkt.head - 1; idx >= 0; {
		next := s.slab[idx].next
		if s.slab[idx].state() == statePending {
			s.slab[idx].next = -1
			if head < 0 {
				head, tail = idx, idx
			} else {
				s.slab[tail].next = idx
				tail = idx
			}
		} else {
			s.nWheel--
			s.release(idx, stateCancelled)
		}
		idx = next
	}
	bkt.head, bkt.tail = head+1, tail+1
	if head < 0 {
		s.occ[b>>6] &^= 1 << uint(b&63)
	}
}

// Stop makes Run/RunUntil return after the currently executing event
// completes. Pending events remain queued.
func (s *Simulator) Stop() { s.stopped = true }

// nextWheelTick scans the occupancy bitmap circularly and returns the tick
// of the nearest non-empty bucket. The caller has already established
// nWheel > 0, so a set bit exists. The scan starts at wheelHint — a proven
// lower bound on the earliest live tick — and tightens the hint to what it
// finds, so repeated stagings of a sparse wheel stay O(1).
func (s *Simulator) nextWheelTick() (int64, bool) {
	base := int64(s.now) >> s.tickShift
	if s.wheelHint > base {
		base = s.wheelHint
	}
	p0 := base & s.mask
	w0 := int(p0 >> 6)
	off := uint(p0 & 63)
	// Fast path: the nearest occupied bucket shares the scan origin's
	// bitmap word — true for every MAC-scale gap under the default tuning.
	if word := s.occ[w0] >> off; word != 0 {
		t := base + int64(bits.TrailingZeros64(word))
		s.wheelHint = t
		return t, true
	}
	words := len(s.occ)
	for k := 1; k <= words; k++ {
		wi := w0 + k
		if wi >= words {
			wi -= words
		}
		word := s.occ[wi]
		if k == words {
			word &= (1 << off) - 1
		}
		if word == 0 {
			continue
		}
		p := int64(wi<<6 + bits.TrailingZeros64(word))
		t := base + ((p - p0) & s.mask)
		s.wheelHint = t
		return t, true
	}
	return 0, false
}

// purgeOverflowDead pops cancelled entries off the overflow heap's top so
// the top is either live or the heap is empty.
func (s *Simulator) purgeOverflowDead() {
	for len(s.overflow) > 0 {
		top := s.overflow[0]
		if s.slab[top.idx].state() == statePending {
			return
		}
		s.heapPopTop(&s.overflow)
		s.dead--
		s.release(top.idx, stateCancelled)
	}
}

// stageTick moves every queued entry of tick t — its wheel bucket FIFO plus
// any overflow-heap entries that have come into range — onto the due heap.
// Dead entries are collected instead of staged.
func (s *Simulator) stageTick(t int64) {
	b := t & s.mask
	if s.nWheel > 0 && s.occ[b>>6]&(1<<uint(b&63)) != 0 {
		bkt := &s.wheel[b]
		idx := bkt.head - 1
		for idx >= 0 {
			e := &s.slab[idx]
			next := e.next
			s.nWheel--
			if e.state() == statePending {
				s.heapPush(&s.due, heapEntry{at: e.at, seq: e.seq, idx: idx})
			} else {
				s.dead--
				s.release(idx, stateCancelled)
			}
			idx = next
		}
		bkt.head, bkt.tail = 0, 0
		s.occ[b>>6] &^= 1 << uint(b&63)
	}
	if len(s.overflow) == 0 {
		return
	}
	for {
		s.purgeOverflowDead()
		if len(s.overflow) == 0 {
			return
		}
		top := s.overflow[0]
		if int64(top.at)>>s.tickShift != t {
			return
		}
		s.heapPopTop(&s.overflow)
		s.heapPush(&s.due, top)
	}
}

// limitExceeded is the event-limit panic, kept out of line so the firing
// path in step stays small.
func (s *Simulator) limitExceeded() {
	panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", s.limit, s.now))
}

// step pops and fires the next event. It reports false when the queue is
// empty or only holds events after horizon. Dead entries that surface are
// collected without firing (and without advancing the clock), each counting
// as one step.
func (s *Simulator) step(horizon Time) bool {
	for {
		var en heapEntry // the live entry to fire, set by one of the branches
		if s.hasFront {
			if s.front.at > horizon {
				return false
			}
			en = s.front
			s.hasFront = false
		} else if len(s.due) > 0 {
			top := s.due[0]
			if s.slab[top.idx].state() != statePending {
				s.heapPopTop(&s.due)
				s.dead--
				s.release(top.idx, stateCancelled)
				return true
			}
			if top.at > horizon {
				return false
			}
			s.heapPopTop(&s.due)
			en = top
		} else if s.nWheel == 0 && len(s.overflow) > 0 &&
			s.slab[s.overflow[0].idx].state() == statePending {
			// Overflow-only fast path: the live heap top is the global
			// minimum (front, due and wheel are all empty), so sparse
			// second-scale workloads fire straight off the heap exactly
			// like the plain heap this kernel replaced.
			top := s.overflow[0]
			if top.at > horizon {
				return false
			}
			s.heapPopTop(&s.overflow)
			en = top
		} else if !s.stageNext(horizon, &en) {
			return false
		} else if en.idx < 0 {
			// stageNext made progress (collected a dead entry or staged a
			// tick) without producing a live entry; go around again.
			continue
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
}

// stageNext advances the queue when nothing is staged for firing: it finds
// the next tick holding events — the nearest occupied wheel bucket or the
// overflow top, whichever is earlier — and stages it, gated on the horizon
// so a bounded run never pulls future ticks into the due heap ahead of
// order. It reports false when the queue is empty or entirely beyond the
// horizon. On true, *en is either a live entry to fire (single-event
// bucket fast path) or remains {idx: -1} when only staging/collection
// happened.
func (s *Simulator) stageNext(horizon Time, en *heapEntry) bool {
	en.idx = -1
	if len(s.overflow) > 0 && s.slab[s.overflow[0].idx].state() != statePending {
		s.purgeOverflowDead()
	}
	if s.nWheel == 0 {
		// Overflow-only. A live top is fired by step's inline fast path,
		// so reaching here means the top was dead (purged above) or the
		// heap is empty; report whether anything remains and let step
		// loop back into its fast path.
		return len(s.overflow) > 0
	}
	wt, _ := s.nextWheelTick()
	if len(s.overflow) > 0 {
		switch ot := int64(s.overflow[0].at) >> s.tickShift; {
		case ot < wt:
			// Every live wheel entry sits at tick ≥ wt > ot, i.e. at or
			// after (ot+1)<<shift, which bounds the overflow top's time
			// from above — the top is the global minimum. Fire it.
			top := s.overflow[0]
			if top.at > horizon {
				return false
			}
			s.heapPopTop(&s.overflow)
			*en = top
			return true
		case ot == wt:
			// Bucket and overflow entries share the tick: merge them in
			// the due heap, which restores exact (at, seq) order.
			if Time(wt<<s.tickShift) > horizon {
				return false
			}
			s.stageTick(wt)
			return true
		}
		// ot > wt: the wheel bucket strictly precedes every overflow
		// entry; fall through to the bucket paths.
	}
	if Time(wt<<s.tickShift) > horizon {
		return false
	}
	b := wt & s.mask
	bkt := &s.wheel[b]
	if idx := bkt.head - 1; idx >= 0 && bkt.head == bkt.tail {
		// Single-event bucket — the dominant shape at 1 µs ticks — skips
		// the due heap and hands its event straight to the firing path
		// (or collects it, if it was cancelled).
		e := &s.slab[idx]
		bkt.head, bkt.tail = 0, 0
		s.occ[b>>6] &^= 1 << uint(b&63)
		s.nWheel--
		if e.state() != statePending {
			s.dead--
			s.release(idx, stateCancelled)
			return true
		}
		if e.at > horizon {
			// Mid-tick horizon (coarse ticks only): park the entry on the
			// due heap for the next run to pick up.
			s.heapPush(&s.due, heapEntry{at: e.at, seq: e.seq, idx: idx})
			return false
		}
		*en = heapEntry{at: e.at, seq: e.seq, idx: idx}
		return true
	}
	// The staged tick may have held only dead entries; the caller loops to
	// either fire from the refilled due heap or stage the next tick.
	s.stageTick(wt)
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

// --- (at, seq) binary heaps shared by the due and overflow queues ---

func (s *Simulator) heapPush(h *[]heapEntry, en heapEntry) {
	*h = append(*h, en)
	s.siftUp(*h, len(*h)-1)
}

// heapPopTop removes the root entry.
func (s *Simulator) heapPopTop(h *[]heapEntry) {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	if n > 0 {
		s.siftDown(*h, 0)
	}
}

func (s *Simulator) siftUp(h []heapEntry, i int) {
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

func (s *Simulator) siftDown(h []heapEntry, i int) {
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
