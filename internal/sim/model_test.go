package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// modelEvent is the reference model's view of one scheduled callback: the
// old-heap semantics are simply "non-cancelled events fire in (at, seq)
// order", with seq allocated per schedule call. A Line push is one more
// schedule call; chain holds the delays of the pushes its callback makes in
// turn, one per generation, and ids the ids of those pushes' callbacks.
type modelEvent struct {
	at        Time
	seq       int
	id        int
	cancelled bool
	fired     bool
	chain     []Time
	ids       []int
}

// modelShape is one random-interleaving workload for the reference model:
// the scale of its delays and the mix of operations it draws.
type modelShape struct {
	name  string
	tick  int    // width of the near-instant delay draw, µs
	span  int    // delay scale, µs
	ops   int    // operations per trial
	mix   [8]int // weights of: schedule, cancel, timer rearm, timer stop, long drain, partial drain, timer move later, line push
	drain int    // largest clock advance of a partial drain, µs
}

// wheelShape is a shape with the default 300-operation mix, scaled to the
// tick (1<<shift µs) and span (1<<(shift+bits) µs) of a timing-wheel
// geometry the kernel once had.
func wheelShape(name string, shift, bits int) modelShape {
	span := 1 << (shift + bits)
	return modelShape{name: name, tick: 1 << shift, span: span, ops: 300, mix: [8]int{4, 2, 2, 1, 1, 2, 2, 2}, drain: 2 * span / 3}
}

// modelShapes and cornerShapes are the delay scales the reference-model
// tests sweep. Each keeps the name of the kernel tuning it was drawn
// against while the kernel still had a timing wheel (shift/ts: tick shift,
// bits/wb: wheel bits, cd: compaction floor, mp/wmp: routing threshold, -1
// or A meaning adaptive), which fixed its tick and span. The heap-only
// kernel has none of those knobs, so a name now only labels a delay scale.
// Shapes that share a scale run disjoint trial seeds, so each adds
// coverage instead of repeating another.
var (
	modelShapes = []modelShape{
		wheelShape("shift0_bits10_mp16", 0, 10),
		wheelShape("shift0_bits2_mp0", 0, 2),
		wheelShape("shift3_bits4_mp0", 3, 4),
		wheelShape("shift5_bits1_mp0", 5, 1),
		wheelShape("shift0_bits10_mp1048576", 0, 10),
		wheelShape("shift0_bits10_mp-1", 0, 10),
		wheelShape("shift3_bits2_mp-1", 3, 2),
	}
	cornerShapes = []modelShape{
		wheelShape("ts0-wb8-cd64-wmp0", 0, 8),
		wheelShape("ts0-wb14-cd64-wmp0", 0, 14),
		wheelShape("ts0-wb10-cd64-wmp16", 0, 10),
		wheelShape("ts8-wb8-cd64-wmp0", 8, 8),
		wheelShape("ts8-wb8-cd64-wmpA", 8, 8),
		wheelShape("ts0-wb8-cd64-wmpA", 0, 8),
		wheelShape("ts0-wb10-cd64-wmp1048576", 0, 10),
	}
)

// TestRandomInterleavingMatchesModel drives the kernel with random
// interleavings of At, Schedule, cancel, Timer.Reset, Timer.ResetAt to a
// later instant, Timer.Stop, Line pushes (and the pushes their callbacks
// make) and partial RunUntil drains, and checks the observed fire sequence
// against a reference model implementing the pre-pool heap semantics
// (stable (at, seq) order, eager cancellation, a fresh seq per schedule,
// re-arm and push). This pins the kernel — pooling, lazy cancellation, the
// front register, timers that move in place, delay lines — to the old
// observable behavior. Cache entries and the seed-1 golden stay valid
// across kernel rewrites precisely because this holds.
//
// The random delays land on the current instant, within the shape's span,
// around the span's edge, and far beyond it.
func TestRandomInterleavingMatchesModel(t *testing.T) {
	for i, sh := range modelShapes {
		t.Run(sh.name, func(t *testing.T) {
			for trial := 0; trial < 100; trial++ {
				runModelTrial(t, sh, int64(i)<<16+int64(trial))
			}
		})
	}
}

// TestRandomInterleavingCornerTunings runs the reference model of
// TestRandomInterleavingMatchesModel over a wider range of delay scales,
// from a 256 µs span up to a 65 ms span with 256 µs near-instant draws.
func TestRandomInterleavingCornerTunings(t *testing.T) {
	for i, sh := range cornerShapes {
		t.Run(sh.name, func(t *testing.T) {
			for trial := 0; trial < 60; trial++ {
				runModelTrial(t, sh, int64(len(modelShapes)+i)<<16+int64(trial))
			}
		})
	}
}

// TestRandomInterleavingQueueCorners runs the reference model on four
// workloads the default mix never reaches, and checks each trial really
// reached its corner:
//   - dead-heavy: hundreds of schedules, most of them cancelled, so at
//     least 64 dead entries outnumber the live ones in the heap while the
//     run goes on;
//   - deep-queue: at least 400 events pending at once, above the 367 and
//     339 peaks of e10 and e11, the deepest registered experiments;
//   - same-instant-ties: a 2 µs span with drains of at most 1 µs, so
//     events sharing an instant are split across RunUntil calls;
//   - moves-and-lines: an 8 µs span where timers move later in place and
//     re-key at the top of the heap among ties, and a Line holds items
//     back, some pushed from its own callbacks.
func TestRandomInterleavingQueueCorners(t *testing.T) {
	corners := []struct {
		shape modelShape
		check func(t *testing.T, st trialStats)
	}{
		{modelShape{name: "dead-heavy", tick: 1, span: 1 << 12, ops: 900, mix: [8]int{4, 10, 1, 0, 0, 1, 0, 0}, drain: 8},
			func(t *testing.T, st trialStats) {
				if st.scheduled < 200 || st.cancelled*2 <= st.scheduled || st.deadHeavy == 0 {
					t.Errorf("scheduled %d, cancelled %d, %d ops with ≥64 dead entries outnumbering the live: want ≥200 scheduled, most cancelled, ≥1 such op",
						st.scheduled, st.cancelled, st.deadHeavy)
				}
			}},
		{modelShape{name: "deep-queue", tick: 1, span: 1 << 14, ops: 2000, mix: [8]int{12, 1, 1, 0, 0, 1, 0, 0}, drain: 1 << 9},
			func(t *testing.T, st trialStats) {
				if st.peakPending < 400 {
					t.Errorf("peak pending %d, want ≥400", st.peakPending)
				}
			}},
		{modelShape{name: "same-instant-ties", tick: 1, span: 2, ops: 300, mix: [8]int{6, 1, 2, 1, 0, 4, 2, 3}, drain: 1},
			func(t *testing.T, st trialStats) {
				if st.splitTies == 0 {
					t.Error("no same-instant tie was split across two drains")
				}
			}},
		{modelShape{name: "moves-and-lines", tick: 1, span: 8, ops: 400, mix: [8]int{4, 1, 1, 1, 0, 3, 6, 6}, drain: 4},
			func(t *testing.T, st trialStats) {
				if st.movedInPlace == 0 || st.heldBack == 0 || st.callbackPushes == 0 {
					t.Errorf("%d timer moves in place, %d pushes held back, %d pushes from callbacks: want each ≥1",
						st.movedInPlace, st.heldBack, st.callbackPushes)
				}
			}},
	}
	for i, c := range corners {
		t.Run(c.shape.name, func(t *testing.T) {
			for trial := 0; trial < 40; trial++ {
				c.check(t, runModelTrial(t, c.shape, int64(100+i)<<16+int64(trial)))
			}
		})
	}
}

// trialStats records what a model trial put the kernel through, so the
// corner tests can check the trial reached its corner.
type trialStats struct {
	scheduled   int // one-shots plus timer arms
	cancelled   int // events cancelled while pending
	deadHeavy   int // operations after which ≥64 dead heap entries outnumbered the live ones
	peakPending int // most live events queued at once
	splitTies   int // drains whose first event shares the instant of the previous drain's last

	movedInPlace   int // timer re-arms that kept their handle: moved in place
	heldBack       int // Line pushes that left more than two items on the line
	callbackPushes int // Line pushes made from a Line item's callback
}

func runModelTrial(t *testing.T, sh modelShape, seed int64) trialStats {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := New(1)
	var st trialStats

	var model []*modelEvent
	var handles []handle // handles[i] belongs to model[i]; zero for timer arms and pushes
	var got []int        // event ids in kernel fire order
	seq := 0
	nextID := 0

	// Three timers participate: each arm is a model event like any other,
	// with at most one arm per timer live. armID[k] is what timer k's
	// callback records, armIdx[k] the model's index of its live arm.
	const nTimers = 3
	var timers [nTimers]*Timer
	var armID, armIdx [nTimers]int
	for k := range timers {
		armID[k], armIdx[k] = -1, -1
		timers[k] = NewTimer(s, func() { got = append(got, armID[k]) })
	}

	// One Line participates. push queues id on it at time at; when the item
	// fires, it pushes the first of chain from its own callback, which
	// pushes the next in turn, ids[g] recording generation g's firing.
	line := NewLine(s)
	var push func(at Time, id int, chain []Time, ids []int)
	push = func(at Time, id int, chain []Time, ids []int) {
		line.At(at, func() {
			got = append(got, id)
			if len(chain) > 0 {
				st.callbackPushes++
				push(s.Now()+chain[0], ids[0], chain[1:], ids[1:])
			}
		})
		if line.n > 2 {
			st.heldBack++
		}
	}

	// modelFire returns, in old-heap order, the ids of every live model
	// event due at or before horizon, marking them fired. A fired push's
	// callback pushes the next generation of its chain at that point, with
	// the next seq, as the kernel's callback does.
	lastFiredAt, anyFired := Time(0), false
	byKey := func(a, b *modelEvent) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }
	modelFire := func(horizon Time) []int {
		var ready []*modelEvent
		for _, m := range model {
			if !m.cancelled && !m.fired && m.at <= horizon {
				ready = append(ready, m)
			}
		}
		sort.Slice(ready, func(i, j int) bool { return byKey(ready[i], ready[j]) })
		if len(ready) > 0 && anyFired && ready[0].at == lastFiredAt {
			st.splitTies++
		}
		var ids []int
		for len(ready) > 0 {
			m := ready[0]
			ready = ready[1:]
			m.fired = true
			lastFiredAt, anyFired = m.at, true
			ids = append(ids, m.id)
			if len(m.chain) == 0 {
				continue
			}
			kid := &modelEvent{at: m.at + m.chain[0], seq: seq, id: m.ids[0], chain: m.chain[1:], ids: m.ids[1:]}
			seq++
			model = append(model, kid)
			handles = append(handles, handle{})
			if kid.at <= horizon {
				i := sort.Search(len(ready), func(i int) bool { return byKey(kid, ready[i]) })
				ready = append(ready[:i], append([]*modelEvent{kid}, ready[i:]...)...)
			}
		}
		return ids
	}
	// cancelModel marks model[i] cancelled if it is still pending.
	cancelModel := func(i int) {
		if i >= 0 && !model[i].fired && !model[i].cancelled {
			model[i].cancelled = true
			st.cancelled++
		}
	}
	// arm records timer k's new arm at time at in the model.
	arm := func(k int, at Time) {
		cancelModel(armIdx[k])
		armID[k] = nextID
		handles = append(handles, handle{}) // keep indices aligned
		model = append(model, &modelEvent{at: at, seq: seq, id: nextID})
		armIdx[k] = len(model) - 1
		nextID++
		seq++
		st.scheduled++
	}

	// delay draws a scheduling offset that lands near the current instant
	// (0 included), inside the span, around the span's edge, or far
	// beyond it with roughly equal probability.
	delay := func() Time {
		switch r.Intn(4) {
		case 0:
			return Time(r.Intn(sh.tick * 2))
		case 1:
			return Time(r.Intn(sh.span))
		case 2:
			return Time(sh.span - sh.span/4 + r.Intn(sh.span/2+1))
		default:
			return Time(sh.span + r.Intn(sh.span*4))
		}
	}
	total := 0
	for _, w := range sh.mix {
		total += w
	}

	var want []int
	for op := 0; op < sh.ops; op++ {
		k := r.Intn(total)
		kind := 0
		for k >= sh.mix[kind] {
			k -= sh.mix[kind]
			kind++
		}
		switch kind {
		case 0: // schedule a one-shot
			id := nextID
			nextID++
			at := s.Now() + delay()
			h := s.at(at, func() { got = append(got, id) })
			handles = append(handles, h)
			model = append(model, &modelEvent{at: at, seq: seq, id: id})
			seq++
			st.scheduled++
		case 1: // cancel a random earlier event (front register or heap)
			if len(handles) == 0 {
				continue
			}
			i := r.Intn(len(handles))
			if handles[i] == (handle{}) {
				continue // a timer arm or a push; not externally cancellable
			}
			s.cancel(handles[i])
			cancelModel(i)
		case 2: // rearm a timer
			k := r.Intn(nTimers)
			d := delay() + 1
			timers[k].Reset(d)
			arm(k, s.Now()+d)
		case 3: // stop a timer
			k := r.Intn(nTimers)
			timers[k].Stop()
			cancelModel(armIdx[k])
			armIdx[k] = -1
		case 4: // long drain: advance past the whole span
			horizon := s.Now() + Time(sh.span+r.Intn(sh.span*2))
			want = append(want, modelFire(horizon)...)
			s.RunUntil(horizon)
		case 5: // drain part of the queue
			horizon := s.Now() + Time(r.Intn(sh.drain+1))
			want = append(want, modelFire(horizon)...)
			s.RunUntil(horizon)
		case 6: // move an armed timer to its deadline or later
			k := r.Intn(nTimers)
			if !timers[k].Armed() {
				continue
			}
			at := timers[k].Deadline() + Time(r.Intn(sh.tick*2))
			if r.Intn(2) == 0 {
				at += delay()
			}
			before := timers[k].event
			timers[k].ResetAt(at)
			if timers[k].event == before {
				st.movedInPlace++
			}
			arm(k, at)
		default: // push onto the line, mostly past its last item
			at := s.Now() + delay()
			if line.n > 0 && r.Intn(4) != 0 {
				tail := line.items[(line.head+line.n-1)&(len(line.items)-1)].at
				at = max(at, tail+Time(r.Intn(sh.tick*2)))
			}
			var chain []Time
			var ids []int
			for r.Intn(3) == 0 {
				chain = append(chain, delay())
				ids = append(ids, nextID+1+len(ids))
			}
			id := nextID
			nextID += 1 + len(ids)
			push(at, id, chain, ids)
			handles = append(handles, handle{})
			model = append(model, &modelEvent{at: at, seq: seq, id: id, chain: chain, ids: ids})
			seq++
			st.scheduled++
		}
		if dead := deadEntries(s); dead >= 64 && dead*2 > len(s.queue) {
			st.deadHeavy++
		}
		st.peakPending = max(st.peakPending, s.Pending())
	}
	want = append(want, modelFire(MaxTime)...)
	s.Run()

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: fire order diverged from old-heap model\n got: %v\nwant: %v",
			seed, got, want)
	}
	if s.Pending() != 0 || line.n != 0 {
		t.Fatalf("seed %d: %d events, %d line items still pending after full drain", seed, s.Pending(), line.n)
	}
	return st
}
