package frame

import (
	"testing"
)

func TestFrameSizes(t *testing.T) {
	cases := []struct {
		f    Frame
		want int
	}{
		{NewAck(0, 1), AckSize},
		{NewPSPoll(3, 1), PSPollSize},
		{*NewData(0, 1, 0, 1500), MACHeader + 1500},
		{*NewData(0, 1, 0, 0), MACHeader},
		{NewBeacon(nil), BeaconBase},
	}
	for i, c := range cases {
		if got := c.f.Size(); got != c.want {
			t.Errorf("case %d (%v): Size() = %d, want %d", i, c.f.Kind, got, c.want)
		}
	}
}

func TestNewDataValidatesPayload(t *testing.T) {
	for _, payload := range []int{-1, MaxPayload + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("payload %d did not panic", payload)
				}
			}()
			NewData(0, 1, 0, payload)
		}()
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{Data, Ack, Beacon, PSPoll} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should render something")
	}
}

func TestTIMSetClearIndicated(t *testing.T) {
	tim := NewTIM()
	if tim.Indicated(5) || tim.EncodedSize() != 5 {
		t.Error("fresh TIM indicates traffic")
	}
	tim.Set(5)
	tim.Set(12)
	tim.Set(12) // already set
	if !tim.Indicated(5) || !tim.Indicated(12) || tim.Indicated(3) {
		t.Error("Indicated wrong")
	}
	tim.Reset()
	if tim.Indicated(5) || tim.Indicated(12) || tim.EncodedSize() != 5 {
		t.Error("Reset left stations indicated")
	}
	if tim.Indicated(-1) || tim.Indicated(1<<20) {
		t.Error("ids outside the bitmap indicated")
	}
}

// The bitset's partial-bitmap size matches the octet range of its lowest
// and highest ids, including ids on either side of a 64-bit word boundary.
func TestTIMEncodedSizeAcrossWords(t *testing.T) {
	for _, c := range []struct {
		ids  []int
		want int
	}{
		{[]int{63}, 5},
		{[]int{64}, 5},
		{[]int{63, 64}, 4 + 2},
		{[]int{8, 191}, 4 + 23 - 1 + 1},
		{[]int{130, 2007}, 4 + 250 - 16 + 1},
	} {
		tim := NewTIM()
		for _, id := range c.ids {
			tim.Set(id)
		}
		if got := tim.EncodedSize(); got != c.want {
			t.Errorf("ids %v: EncodedSize = %d, want %d", c.ids, got, c.want)
		}
	}
}

// A TIM reused across beacons allocates nothing once its bitset covers
// the highest id it is asked to mark.
func TestTIMReuseAllocatesNothing(t *testing.T) {
	tim := NewTIM()
	allocs := testing.AllocsPerRun(100, func() {
		tim.Reset()
		for _, id := range []int{0, 5, 70, 129} {
			tim.Set(id)
		}
		_ = tim.EncodedSize()
	})
	if allocs != 0 {
		t.Errorf("reset and refill allocated %.1f times per run, want 0", allocs)
	}
}

func TestTIMNegativeStationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative station did not panic")
		}
	}()
	NewTIM().Set(-1)
}

func TestTIMEncodedSizePartialBitmap(t *testing.T) {
	tim := NewTIM()
	if got := tim.EncodedSize(); got != 5 {
		t.Errorf("empty TIM size = %d, want 5", got)
	}
	tim.Set(0)
	if got := tim.EncodedSize(); got != 5 {
		t.Errorf("one-station TIM size = %d, want 5", got)
	}
	// Stations 200..207 live in octet 25; partial bitmap still 1 octet.
	tim2 := NewTIM()
	tim2.Set(200)
	tim2.Set(207)
	if got := tim2.EncodedSize(); got != 5 {
		t.Errorf("high-octet TIM size = %d, want 5 (partial bitmap)", got)
	}
	// Span from octet 0 to octet 25 = 26 octets.
	tim2.Set(0)
	if got := tim2.EncodedSize(); got != 4+26 {
		t.Errorf("wide TIM size = %d, want 30", got)
	}
}

func TestBeaconSizeGrowsWithTIM(t *testing.T) {
	tim := NewTIM()
	b := NewBeacon(tim)
	small := b.Size()
	tim.Set(0)
	tim.Set(100)
	if b.Size() <= small {
		t.Error("beacon size should grow with wider TIM")
	}
}
