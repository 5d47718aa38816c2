package energy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/radio"
	"repro/internal/sim"
)

func TestBatteryBasics(t *testing.T) {
	b := NewBattery(100)
	if b.Capacity() != 100 || b.Remaining() != 100 || b.Level() != 1 {
		t.Error("fresh battery wrong")
	}
	if !b.Drain(30, sim.Second) {
		t.Error("drain within capacity reported failure")
	}
	if b.Remaining() != 70 || math.Abs(b.Level()-0.7) > 1e-12 {
		t.Errorf("remaining = %v", b.Remaining())
	}
	if b.Dead() {
		t.Error("battery dead too early")
	}
}

func TestBatteryDeath(t *testing.T) {
	b := NewBattery(10)
	var diedAt sim.Time = -1
	b.OnDeath = func(at sim.Time) { diedAt = at }
	if b.Drain(15, 3*sim.Second) {
		t.Error("over-drain reported success")
	}
	if !b.Dead() || b.Remaining() != 0 {
		t.Error("battery should be dead and empty")
	}
	if diedAt != 3*sim.Second {
		t.Errorf("death time = %v, want 3s", diedAt)
	}
	// Further drains are no-ops.
	if b.Drain(1, 4*sim.Second) {
		t.Error("drain on dead battery succeeded")
	}
}

func TestBatteryAliveDeadAt(t *testing.T) {
	b := NewBattery(5)
	b.OnDeath = func(sim.Time) { t.Error("OnDeath fired for a battery that never emptied") }
	if !b.Drain(4.9, sim.Second) || b.Dead() {
		t.Error("a battery with charge left should be alive")
	}
}

func TestNegativeDrainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative drain accepted")
		}
	}()
	NewBattery(1).Drain(-1, 0)
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity accepted")
		}
	}()
	NewBattery(0)
}

// Property: monotone non-increasing remaining energy under arbitrary drains.
func TestBatteryMonotoneProperty(t *testing.T) {
	prop := func(drains []uint16) bool {
		b := NewBattery(1000)
		prev := b.Remaining()
		for i, d := range drains {
			b.Drain(float64(d)/100, sim.Time(i))
			cur := b.Remaining()
			if cur > prev {
				return false
			}
			prev = cur
		}
		return b.Remaining() >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTrackerDrainsFromDevice(t *testing.T) {
	s := sim.New(1)
	dev := radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
	b := NewBattery(1000)
	NewTracker(s, dev.Meter(), b, 100*sim.Millisecond)
	s.RunUntil(10 * sim.Second)
	// 10 s idle at 1.35 W = 13.5 J
	want := 1000 - 13.5
	if math.Abs(b.Remaining()-want) > 0.2 {
		t.Errorf("remaining = %.2f, want ≈ %.2f", b.Remaining(), want)
	}
}

func TestTrackerStopsAtDeath(t *testing.T) {
	s := sim.New(2)
	dev := radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
	b := NewBattery(1.35) // exactly 1 second of idle
	var at sim.Time = -1
	b.OnDeath = func(d sim.Time) { at = d }
	NewTracker(s, dev.Meter(), b, 100*sim.Millisecond)
	s.RunUntil(5 * sim.Second)
	if at < 0 {
		t.Fatal("battery did not die")
	}
	if at < 900*sim.Millisecond || at > 1200*sim.Millisecond {
		t.Errorf("died at %v, want ≈ 1s", at)
	}
}

// Capacity returns the battery's full capacity in joules.
func (b *Battery) Capacity() float64 { return b.capacity }
