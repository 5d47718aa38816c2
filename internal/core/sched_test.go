package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func mkDemand(client int, bytes int, deadline sim.Time, weight float64) Demand {
	return Demand{Client: client, Iface: WLAN, Bytes: bytes, Deadline: deadline, Weight: weight}
}

func TestEDFOrdersByDeadline(t *testing.T) {
	ds := []Demand{
		mkDemand(0, 100, 30*sim.Second, 1),
		mkDemand(1, 100, 10*sim.Second, 1),
		mkDemand(2, 100, 20*sim.Second, 1),
	}
	out := EDF{}.Order(0, ds)
	want := []int{1, 2, 0}
	for i, d := range out {
		if d.Client != want[i] {
			t.Fatalf("order = %v, want clients %v", out, want)
		}
	}
	// Order sorts in place and returns its argument.
	if &out[0] != &ds[0] {
		t.Error("EDF did not order its input in place")
	}
}

func TestEDFStableOnTies(t *testing.T) {
	ds := []Demand{
		mkDemand(5, 100, 10*sim.Second, 1),
		mkDemand(3, 100, 10*sim.Second, 1),
		mkDemand(8, 100, 10*sim.Second, 1),
	}
	out := EDF{}.Order(0, ds)
	for i, want := range []int{5, 3, 8} {
		if out[i].Client != want {
			t.Fatal("EDF tie-break not stable")
		}
	}
}

func TestRoundRobinRotates(t *testing.T) {
	ds := []Demand{
		mkDemand(0, 100, 0, 1),
		mkDemand(1, 100, 0, 1),
		mkDemand(2, 100, 0, 1),
	}
	firstOf := func(epoch int) int { return RoundRobin{}.Order(epoch, ds)[0].Client }
	if firstOf(0) != 0 || firstOf(1) != 1 || firstOf(2) != 2 || firstOf(3) != 0 {
		t.Errorf("rotation wrong: %d %d %d %d", firstOf(0), firstOf(1), firstOf(2), firstOf(3))
	}
}

func TestWFQPrefersLightClients(t *testing.T) {
	// Equal weights, unequal bytes: the smaller request finishes first in
	// virtual time.
	w := NewWFQ()
	out := w.Order(0, []Demand{
		mkDemand(0, 10_000, 0, 1),
		mkDemand(1, 1_000, 0, 1),
	})
	if out[0].Client != 1 {
		t.Errorf("WFQ served heavy client first: %v", out)
	}
}

func TestWFQWeightsDominate(t *testing.T) {
	// Same bytes, 10x weight: the heavier-weighted client finishes first.
	w := NewWFQ()
	out := w.Order(0, []Demand{
		mkDemand(0, 10_000, 0, 1),
		mkDemand(1, 10_000, 0, 10),
	})
	if out[0].Client != 1 {
		t.Errorf("WFQ ignored weights: %v", out)
	}
}

func TestWFQLongRunProportionality(t *testing.T) {
	// Over many epochs with saturating demands, cumulative service order
	// frequency should track weights: the weight-2 client should be served
	// first about twice as often as each weight-1 client.
	w := NewWFQ()
	served := map[int]int{}
	for epoch := 0; epoch < 600; epoch++ {
		out := w.Order(epoch, []Demand{
			mkDemand(0, 1000, 0, 1),
			mkDemand(1, 1000, 0, 1),
			mkDemand(2, 1000, 0, 2),
		})
		served[out[0].Client]++
	}
	if served[2] < served[0]+served[1]-100 {
		t.Errorf("weight-2 client served first %d times vs %d+%d; want ≈ sum",
			served[2], served[0], served[1])
	}
}

// Property: layoutSlots never overlaps slots, never exceeds the window, and
// never outputs more bytes than demanded.
func TestLayoutSlotsInvariantsProperty(t *testing.T) {
	durFor := func(d Demand, bytes int) sim.Time {
		return sim.Time(bytes) * sim.Microsecond // 1 B/µs synthetic rate
	}
	prop := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%12) + 1
		var ds []Demand
		totalBytes := 0
		for i := 0; i < n; i++ {
			b := r.Intn(200_000)
			totalBytes += b
			ds = append(ds, mkDemand(i, b, sim.Time(r.Intn(100))*sim.Second, 1))
		}
		start := sim.Time(150) * sim.Millisecond
		limit := start + sim.Time(r.Intn(900)+100)*sim.Millisecond
		guard := 10 * sim.Millisecond
		slots := layoutSlots(nil, ds, start, limit, guard, SlotBulk, durFor)
		var prevEnd sim.Time
		outBytes := 0
		for i, s := range slots {
			if s.Start < start || s.End > limit {
				return false
			}
			if i > 0 && s.Start < prevEnd {
				return false
			}
			if s.End < s.Start {
				return false
			}
			if s.Bytes <= 0 {
				return false
			}
			outBytes += s.Bytes
			prevEnd = s.End
		}
		return outBytes <= totalBytes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLayoutSlotsTruncatesToWindow(t *testing.T) {
	durFor := func(d Demand, bytes int) sim.Time {
		return sim.Time(bytes) * sim.Millisecond / 100 // 100 B/ms
	}
	ds := []Demand{
		mkDemand(0, 50_000, 0, 1), // 500 ms
		mkDemand(1, 50_000, 0, 1), // would need another 500 ms
	}
	slots := layoutSlots(nil, ds, 0, 700*sim.Millisecond, 0, SlotBulk, durFor)
	if len(slots) != 2 {
		t.Fatalf("slots = %d, want 2 (second truncated)", len(slots))
	}
	if slots[1].Bytes >= 50_000 {
		t.Errorf("second slot not truncated: %d bytes", slots[1].Bytes)
	}
	if slots[1].End > 700*sim.Millisecond {
		t.Errorf("slot past window end: %v", slots[1].End)
	}
}

func TestLayoutSlotsSkipsZeroDemands(t *testing.T) {
	durFor := func(d Demand, bytes int) sim.Time { return sim.Millisecond }
	slots := layoutSlots(nil, []Demand{
		mkDemand(0, 0, 0, 1),
		mkDemand(1, 100, 0, 1),
	}, 0, sim.Second, 0, SlotBulk, durFor)
	if len(slots) != 1 || slots[0].Client != 1 {
		t.Errorf("zero demand not skipped: %v", slots)
	}
}

// layoutSlots appends after whatever dst already holds, so the rescue pass
// can lay bulk slots out behind its rescue slots in one buffer.
func TestLayoutSlotsAppendsToDst(t *testing.T) {
	durFor := func(d Demand, bytes int) sim.Time { return sim.Millisecond }
	prefix := Slot{Client: 9, Kind: SlotRescue}
	slots := layoutSlots([]Slot{prefix}, []Demand{mkDemand(1, 100, 0, 1)},
		0, sim.Second, 0, SlotBulk, durFor)
	if len(slots) != 2 || slots[0] != prefix || slots[1].Client != 1 {
		t.Errorf("layout did not append after the prefix: %v", slots)
	}
}

// WFQ and round-robin also order in place, and round-robin's rotation
// must match the rotate-by-epoch order for every epoch.
func TestSchedulersOrderInPlace(t *testing.T) {
	ds := []Demand{mkDemand(2, 100, 0, 1), mkDemand(0, 300, 0, 1), mkDemand(1, 200, 0, 1)}
	for epoch := 0; epoch < 7; epoch++ {
		out := RoundRobin{}.Order(epoch, ds)
		if &out[0] != &ds[0] {
			t.Fatal("round-robin did not order in place")
		}
		for i := range out {
			if want := (epoch + i) % 3; out[i].Client != want {
				t.Fatalf("epoch %d: order %v, want client %d at %d", epoch, out, want, i)
			}
		}
	}
	out := NewWFQ().Order(0, ds)
	if &out[0] != &ds[0] {
		t.Fatal("WFQ did not order in place")
	}
	for i, want := range []int{2, 1, 0} { // 100, 200, 300 bytes at equal weight
		if out[i].Client != want {
			t.Fatalf("WFQ order %v, want clients 2, 1, 0", out)
		}
	}
}

func TestSlotKindString(t *testing.T) {
	for _, k := range []SlotKind{SlotBulk, SlotRescue, SlotRecovery, SlotUrgent} {
		if k.String() == "" {
			t.Error("missing slot kind name")
		}
	}
}

func TestSlotString(t *testing.T) {
	s := Slot{Client: 2, Iface: BT, Start: sim.Second, End: 2 * sim.Second, Bytes: 1000}
	if s.String() == "" {
		t.Error("slot renders empty")
	}
}

// Property: EDF output is a permutation of its input sorted by deadline.
func TestEDFPermutationProperty(t *testing.T) {
	prop := func(deadlines []uint16) bool {
		var ds []Demand
		for i, d := range deadlines {
			ds = append(ds, mkDemand(i, 100, sim.Time(d)*sim.Millisecond, 1))
		}
		out := EDF{}.Order(0, ds)
		if len(out) != len(ds) {
			return false
		}
		seen := map[int]bool{}
		for i, d := range out {
			if seen[d.Client] {
				return false
			}
			seen[d.Client] = true
			if i > 0 && out[i-1].Deadline > d.Deadline {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
