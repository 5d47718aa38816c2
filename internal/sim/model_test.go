package sim

import (
	"fmt"
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

// modelTunings are the kernel tunings the reference-model test sweeps. The
// non-default entries are chosen to be hostile to the timing wheel: a
// 4-bucket wheel rotates constantly and pushes most events through the
// overflow heap; coarse ticks force the intra-tick due heap to do real
// ordering work; a tiny CompactMinDead makes compaction fire mid-run.
func modelTunings() []Tuning {
	return []Tuning{
		DefaultTuning(),
		{TickShift: 0, WheelBits: 2, CompactMinDead: 4},                                   // constant rotation + overflow
		{TickShift: 3, WheelBits: 4, CompactMinDead: 8},                                   // coarse ticks, mid-run compaction
		{TickShift: 5, WheelBits: 1, CompactMinDead: 64},                                  // 2-bucket wheel
		{TickShift: 0, WheelBits: 10, CompactMinDead: 64, WheelMinPending: 1 << 20},       // routing off: pure heap mode
		{TickShift: 0, WheelBits: 10, CompactMinDead: 64, WheelMinPending: WheelAdaptive}, // adaptive routing, default geometry
		{TickShift: 3, WheelBits: 2, CompactMinDead: 4, WheelMinPending: WheelAdaptive},   // adaptive + constant rotation + compaction
	}
}

// cornerTunings are the geometry corners of the kernel's tuning space,
// named as ts<TickShift>-wb<WheelBits>-cd<CompactMinDead>-wmp<WheelMinPending>
// (A for adaptive routing): the smallest and largest wheel, the default
// (finest tick), the coarsest tick, the adaptive mode at both small-wheel
// extremes, and routing switched off entirely (pure heap). These are the
// shapes where a wheel-ordering bug would hide.
var cornerTunings = []struct {
	name string
	tun  Tuning
}{
	{"ts0-wb8-cd64-wmp0", Tuning{TickShift: 0, WheelBits: 8, CompactMinDead: 64, WheelMinPending: 0}},
	{"ts0-wb14-cd64-wmp0", Tuning{TickShift: 0, WheelBits: 14, CompactMinDead: 64, WheelMinPending: 0}},
	{"ts0-wb10-cd64-wmp16", DefaultTuning()},
	{"ts8-wb8-cd64-wmp0", Tuning{TickShift: 8, WheelBits: 8, CompactMinDead: 64, WheelMinPending: 0}},
	{"ts8-wb8-cd64-wmpA", Tuning{TickShift: 8, WheelBits: 8, CompactMinDead: 64, WheelMinPending: WheelAdaptive}},
	{"ts0-wb8-cd64-wmpA", Tuning{TickShift: 0, WheelBits: 8, CompactMinDead: 64, WheelMinPending: WheelAdaptive}},
	{"ts0-wb10-cd64-wmp1048576", Tuning{TickShift: 0, WheelBits: 10, CompactMinDead: 64, WheelMinPending: 1 << 20}},
}

// TestRandomInterleavingMatchesModel drives the kernel with random
// interleavings of At, Schedule, Cancel, Timer.Reset, Timer.Stop and
// partial RunUntil drains, and checks the observed fire sequence against a
// reference model implementing the pre-pool heap semantics (stable
// (at, seq) order, eager cancellation). This pins the refactored kernel —
// pooling, lazy cancellation, compaction, and now the timing wheel with
// its front register, per-tick buckets and overflow heap — to the old
// observable behavior, across tunings that exercise every wheel shape.
// Cache entries and the seed-1 golden stay valid under any tuning
// precisely because this holds.
//
// The random delays deliberately straddle each tuning's wheel span: short
// delays land in buckets (including the current tick), mid delays cross
// bucket-boundary and rotation edges, and long delays go through the
// overflow heap and migrate back when their tick comes up.
func TestRandomInterleavingMatchesModel(t *testing.T) {
	for _, tun := range modelTunings() {
		tun := tun
		name := fmt.Sprintf("shift%d_bits%d_mp%d", tun.TickShift, tun.WheelBits, tun.WheelMinPending)
		t.Run(name, func(t *testing.T) {
			span := int(1) << (tun.TickShift + tun.WheelBits)
			for trial := 0; trial < 100; trial++ {
				runModelTrial(t, tun, span, trial)
			}
		})
	}
}

// TestRandomInterleavingCornerTunings runs the reference model of
// TestRandomInterleavingMatchesModel at the corners of the tuning space, so
// every tuning a spec can carry in Spec.Tuning fires in the identical order.
func TestRandomInterleavingCornerTunings(t *testing.T) {
	for _, c := range cornerTunings {
		tun := c.tun
		t.Run(c.name, func(t *testing.T) {
			span := int(1) << (tun.TickShift + tun.WheelBits)
			for trial := 0; trial < 60; trial++ {
				runModelTrial(t, tun, span, trial)
			}
		})
	}
}

func runModelTrial(t *testing.T, tun Tuning, span, trial int) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(trial)))
	s := NewTuned(1, tun)

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
		var ids []int
		for _, m := range ready {
			m.fired = true
			ids = append(ids, m.id)
		}
		return ids
	}

	// delay draws a scheduling offset that lands in the current tick, in a
	// near-future bucket, just past a wheel-span boundary, or deep in the
	// overflow heap with roughly equal probability.
	delay := func() Time {
		switch r.Intn(4) {
		case 0: // same-tick and near-bucket (includes 0: the current instant)
			return Time(r.Intn(1 << tun.TickShift * 2))
		case 1: // inside the wheel span
			return Time(r.Intn(span))
		case 2: // straddle the wheel-rotation boundary
			return Time(span - span/4 + r.Intn(span/2+1))
		default: // far future: overflow heap territory
			return Time(span + r.Intn(span*4))
		}
	}

	var want []int
	for op := 0; op < 300; op++ {
		switch k := r.Intn(12); {
		case k < 4: // schedule a one-shot
			id := nextID
			nextID++
			at := s.Now() + delay()
			h := s.At(at, func() { got = append(got, id) })
			handles = append(handles, h)
			model = append(model, &modelEvent{at: at, seq: seq, id: id})
			seq++
		case k < 6: // cancel a random earlier event (wheel, overflow or front)
			if len(handles) == 0 {
				continue
			}
			i := r.Intn(len(handles))
			if handles[i] == (Handle{}) {
				continue // a timer arm; not externally cancellable
			}
			s.Cancel(handles[i])
			if !model[i].fired {
				model[i].cancelled = true
			}
		case k < 8: // rearm the timer, migrating it between wheel and overflow
			d := delay() + 1
			timer.Reset(d)
			if timerIdx >= 0 && !model[timerIdx].fired {
				model[timerIdx].cancelled = true
			}
			id := nextID
			nextID++
			timerArmID = id
			handles = append(handles, Handle{}) // keep indices aligned
			model = append(model, &modelEvent{at: s.Now() + d, seq: seq, id: id})
			timerIdx = len(model) - 1
			seq++
		case k == 8: // stop the timer
			timer.Stop()
			if timerIdx >= 0 && !model[timerIdx].fired {
				model[timerIdx].cancelled = true
			}
			timerIdx = -1
		case k == 9: // long drain: advance across at least one full rotation
			horizon := s.Now() + Time(span+r.Intn(span*2))
			want = append(want, modelFire(horizon)...)
			s.RunUntil(horizon)
		default: // drain part of the queue
			horizon := s.Now() + Time(r.Intn(2*span/3+1))
			want = append(want, modelFire(horizon)...)
			s.RunUntil(horizon)
		}
	}
	want = append(want, modelFire(MaxTime)...)
	s.Run()

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trial %d: fire order diverged from old-heap model\n got: %v\nwant: %v",
			trial, got, want)
	}
	if s.Pending() != 0 {
		t.Fatalf("trial %d: %d events still pending after full drain", trial, s.Pending())
	}
}
