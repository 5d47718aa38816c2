package sim

import "math/bits"

// Batch groups events that share a lifecycle — one station's contention
// timers, one transfer's in-flight packets, one beacon cycle's wakeups — so
// the owner can schedule them as a group and cancel whatever is still
// pending in one call. Scheduling through a Batch is exactly
// Simulator.Schedule (same sequence numbers, same firing order, same
// handles); the batch only records membership, so adopting it never changes
// a simulation's event order.
//
// Cancellation cost is O(1) amortized per member: CancelAll walks the
// member list and lazily cancels each pending event (an O(1) mark), and the
// list is reused across cycles, so a steady schedule/cancel loop performs
// no allocations. Batch is not safe for concurrent use, like the Simulator
// it feeds.
type Batch struct {
	s       *Simulator
	handles []Handle
	slots   int // the first slots entries are fixed, slot-addressed members
}

// NewBatch creates a batch expecting about n concurrently pending events.
// n only sizes the initial reservation; the batch grows as needed.
func (s *Simulator) NewBatch(n int) *Batch {
	b := &Batch{s: s}
	if n > 0 {
		b.Reserve(n)
	}
	return b
}

// NewSlotBatch creates a batch of n fixed, index-addressed slots — the
// "reserve N slots" form for owners whose event group has a known shape
// (a station's DIFS and slot-countdown timers, a client's wakeup and doze
// poll). Slot scheduling is a single handle store: no append, no
// compaction, no growth — the cheapest possible group membership.
// AtSlot/ScheduleSlot address the slots; Schedule still appends dynamic
// members behind them.
func (s *Simulator) NewSlotBatch(n int) *Batch {
	s.Reserve(n)
	return &Batch{s: s, handles: make([]Handle, n), slots: n}
}

// AtSlot schedules fn at absolute time t in the given slot, cancelling any
// event still pending there (a slot behaves like Timer: one occupant).
func (b *Batch) AtSlot(slot int, t Time, fn func()) Handle {
	b.s.Cancel(b.handles[slot])
	h := b.s.At(t, fn)
	b.handles[slot] = h
	return h
}

// ScheduleSlot schedules fn after delay in the given slot, cancelling any
// event still pending there.
func (b *Batch) ScheduleSlot(slot int, delay Time, fn func()) Handle {
	b.s.Cancel(b.handles[slot])
	h := b.s.Schedule(delay, fn)
	b.handles[slot] = h
	return h
}

// Reserve ensures capacity for n more members without reallocation, and
// grows the simulator's event slab alongside so the scheduling hot path
// stays allocation-free even on first use.
func (b *Batch) Reserve(n int) {
	if free := cap(b.handles) - len(b.handles); free < n {
		grown := make([]Handle, len(b.handles), nextPow2(len(b.handles)+n))
		copy(grown, b.handles)
		b.handles = grown
	}
	b.s.Reserve(n)
}

// nextPow2 rounds n up to the next power of two, so repeated small
// reservations grow a slice geometrically — O(log n) copies total —
// instead of copying the whole backing array on every call.
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Reserve grows the event slab's spare capacity to at least n slots so a
// coming burst of schedules will not reallocate it. Recycled free-list
// slots count toward the guarantee, so repeated reservations on a warmed
// simulator (one transfer per adaptive-ARQ epoch, say) are no-ops.
// Callers that only need the capacity guarantee use this directly;
// batches layer group membership on top.
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

// Schedule schedules fn after delay as a member of the batch.
func (b *Batch) Schedule(delay Time, fn func()) Handle {
	h := b.s.Schedule(delay, fn)
	b.add(h)
	return h
}

// add records a member, compacting fired/cancelled members out of the list
// when it is about to grow — so the list length tracks the number of
// concurrently pending events, not the number ever scheduled. The compact
// pass lives out of line to keep add itself inlineable into the
// Schedule wrapper.
func (b *Batch) add(h Handle) {
	if len(b.handles) == cap(b.handles) {
		b.compact()
	}
	b.handles = append(b.handles, h)
}

// compact drops fired/cancelled dynamic members from the list; fixed slots
// keep their positions.
func (b *Batch) compact() {
	kept := b.handles[:b.slots]
	for _, m := range b.handles[b.slots:] {
		if m.Pending() {
			kept = append(kept, m)
		}
	}
	b.handles = kept
}

// CancelAll cancels every still-pending member — fixed slots in slot
// order, then dynamic members in scheduling order — and empties the batch
// (slots stay reserved, but vacant). Members that already fired or were
// cancelled individually are skipped (Cancel is a no-op on them).
func (b *Batch) CancelAll() {
	for i, m := range b.handles {
		b.s.Cancel(m)
		if i < b.slots {
			b.handles[i] = Handle{}
		}
	}
	b.handles = b.handles[:b.slots]
}
