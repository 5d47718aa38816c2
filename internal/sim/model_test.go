package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// modelEvent is the reference model's view of one scheduled callback: the
// old-heap semantics are simply "non-cancelled events fire in (at, seq)
// order", with seq allocated per schedule call.
type modelEvent struct {
	at        Time
	seq       int
	id        int
	cancelled bool
	fired     bool
}

// modelShape is one random-interleaving workload for the reference model:
// the scale of its delays and the mix of operations it draws.
type modelShape struct {
	name  string
	tick  int    // width of the near-instant delay draw, µs
	span  int    // delay scale, µs
	ops   int    // operations per trial
	mix   [6]int // weights of: schedule, cancel, timer rearm, timer stop, long drain, partial drain
	drain int    // largest clock advance of a partial drain, µs
}

// wheelShape is a shape with the default 300-operation mix, scaled to the
// tick (1<<shift µs) and span (1<<(shift+bits) µs) of a timing-wheel
// geometry the kernel once had.
func wheelShape(name string, shift, bits int) modelShape {
	span := 1 << (shift + bits)
	return modelShape{name: name, tick: 1 << shift, span: span, ops: 300, mix: [6]int{4, 2, 2, 1, 1, 2}, drain: 2 * span / 3}
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
// interleavings of At, Schedule, Cancel, Timer.Reset, Timer.Stop and
// partial RunUntil drains, and checks the observed fire sequence against a
// reference model implementing the pre-pool heap semantics (stable
// (at, seq) order, eager cancellation). This pins the kernel — pooling,
// lazy cancellation, compaction, the front register — to the old
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

// TestRandomInterleavingQueueCorners runs the reference model on three
// workloads the default mix never reaches, and checks each trial really
// reached its corner:
//   - compaction-floor: hundreds of schedules, most of them cancelled, so
//     dead entries pass the 64-entry compaction floor while the heap
//     rebuilds mid-run;
//   - deep-queue: at least 400 events pending at once, above the 367 and
//     339 peaks of e10 and e11, the deepest registered experiments;
//   - same-instant-ties: a 2 µs span with drains of at most 1 µs, so
//     events sharing an instant are split across RunUntil calls.
func TestRandomInterleavingQueueCorners(t *testing.T) {
	corners := []struct {
		shape modelShape
		check func(t *testing.T, st trialStats)
	}{
		{modelShape{name: "compaction-floor", tick: 1, span: 1 << 12, ops: 900, mix: [6]int{4, 10, 1, 0, 0, 1}, drain: 8},
			func(t *testing.T, st trialStats) {
				if st.scheduled < 200 || st.cancelled*2 <= st.scheduled || st.compactions == 0 {
					t.Errorf("scheduled %d, cancelled %d, compactions %d: want ≥200 scheduled, most cancelled, ≥1 compaction",
						st.scheduled, st.cancelled, st.compactions)
				}
			}},
		{modelShape{name: "deep-queue", tick: 1, span: 1 << 14, ops: 2000, mix: [6]int{12, 1, 1, 0, 0, 1}, drain: 1 << 9},
			func(t *testing.T, st trialStats) {
				if st.peakPending < 400 {
					t.Errorf("peak pending %d, want ≥400", st.peakPending)
				}
			}},
		{modelShape{name: "same-instant-ties", tick: 1, span: 2, ops: 300, mix: [6]int{6, 1, 2, 1, 0, 4}, drain: 1},
			func(t *testing.T, st trialStats) {
				if st.splitTies == 0 {
					t.Error("no same-instant tie was split across two drains")
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
	compactions int // heap rebuilds triggered by a cancel
	peakPending int // most live events queued at once
	splitTies   int // drains whose first event shares the instant of the previous drain's last
}

func runModelTrial(t *testing.T, sh modelShape, seed int64) trialStats {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := New(1)
	var st trialStats

	var model []*modelEvent
	var handles []Handle // handles[i] belongs to model[i]; zero for timer arms
	var got []int        // event ids in kernel fire order
	seq := 0
	nextID := 0

	// One timer participates: each arm is a model event like any other,
	// with at most one arm live. timerArmID is what the kernel-side
	// callback records; timerIdx is the model's index of the live arm.
	timerArmID := -1
	timerIdx := -1
	timer := NewTimer(s, func() { got = append(got, timerArmID) })

	// modelFire returns, in old-heap order, the ids of every live model
	// event due at or before horizon, marking them fired.
	lastFiredAt, anyFired := Time(0), false
	modelFire := func(horizon Time) []int {
		var ready []*modelEvent
		for _, m := range model {
			if !m.cancelled && !m.fired && m.at <= horizon {
				ready = append(ready, m)
			}
		}
		sort.Slice(ready, func(i, j int) bool {
			return ready[i].at < ready[j].at ||
				(ready[i].at == ready[j].at && ready[i].seq < ready[j].seq)
		})
		if len(ready) > 0 {
			if anyFired && ready[0].at == lastFiredAt {
				st.splitTies++
			}
			lastFiredAt, anyFired = ready[len(ready)-1].at, true
		}
		var ids []int
		for _, m := range ready {
			m.fired = true
			ids = append(ids, m.id)
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
		deadBefore := s.dead
		switch kind {
		case 0: // schedule a one-shot
			id := nextID
			nextID++
			at := s.Now() + delay()
			h := s.At(at, func() { got = append(got, id) })
			handles = append(handles, h)
			model = append(model, &modelEvent{at: at, seq: seq, id: id})
			seq++
			st.scheduled++
		case 1: // cancel a random earlier event (front register or heap)
			if len(handles) == 0 {
				continue
			}
			i := r.Intn(len(handles))
			if handles[i] == (Handle{}) {
				continue // a timer arm; not externally cancellable
			}
			s.Cancel(handles[i])
			cancelModel(i)
		case 2: // rearm the timer
			d := delay() + 1
			timer.Reset(d)
			cancelModel(timerIdx)
			id := nextID
			nextID++
			timerArmID = id
			handles = append(handles, Handle{}) // keep indices aligned
			model = append(model, &modelEvent{at: s.Now() + d, seq: seq, id: id})
			timerIdx = len(model) - 1
			seq++
			st.scheduled++
		case 3: // stop the timer
			timer.Stop()
			cancelModel(timerIdx)
			timerIdx = -1
		case 4: // long drain: advance past the whole span
			horizon := s.Now() + Time(sh.span+r.Intn(sh.span*2))
			want = append(want, modelFire(horizon)...)
			s.RunUntil(horizon)
		default: // drain part of the queue
			horizon := s.Now() + Time(r.Intn(sh.drain+1))
			want = append(want, modelFire(horizon)...)
			s.RunUntil(horizon)
		}
		// Cancel only ever adds dead entries, except when it compacts.
		if s.dead < deadBefore && kind >= 1 && kind <= 3 {
			st.compactions++
		}
		st.peakPending = max(st.peakPending, s.Pending())
	}
	want = append(want, modelFire(MaxTime)...)
	s.Run()

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: fire order diverged from old-heap model\n got: %v\nwant: %v",
			seed, got, want)
	}
	if s.Pending() != 0 {
		t.Fatalf("seed %d: %d events still pending after full drain", seed, s.Pending())
	}
	return st
}
