package ecmac

import (
	"testing"

	"repro/internal/radio"
	"repro/internal/sim"
)

func newNet(seed int64, nStations int, cfg Config) (*sim.Simulator, *Network) {
	s := sim.New(seed)
	bs := radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
	n := NewNetwork(s, cfg, bs)
	for i := 0; i < nStations; i++ {
		n.Register(i, radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle))
	}
	return s, n
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.SlotTime = bad.SuperframeLen
	if err := bad.Validate(); err == nil {
		t.Error("slot >= superframe accepted")
	}
}

func TestBytesPerSlot(t *testing.T) {
	cfg := DefaultConfig()
	// 2 ms at 11 Mb/s = 2750 bytes
	if got := cfg.BytesPerSlot(); got != 2750 {
		t.Errorf("BytesPerSlot = %d, want 2750", got)
	}
}

func TestDownlinkDelivery(t *testing.T) {
	s, n := newNet(1, 2, DefaultConfig())
	n.Start()
	n.Deliver(0, 5000)
	n.Deliver(1, 2000)
	s.RunUntil(200 * sim.Millisecond)
	if got := n.StationRecvBytes(0); got != 5000 {
		t.Errorf("station 0 received %d, want 5000", got)
	}
	if got := n.StationRecvBytes(1); got != 2000 {
		t.Errorf("station 1 received %d, want 2000", got)
	}
	st := n.Stats()
	if st.PacketsDeliv != 2 {
		t.Errorf("packets delivered = %d, want 2", st.PacketsDeliv)
	}
	if st.Collisions != 0 {
		t.Error("TDMA produced collisions")
	}
}

func TestDownlinkWaitsForNextSchedule(t *testing.T) {
	s, n := newNet(2, 1, DefaultConfig())
	n.Start()
	// The 50 ms superframe's schedule is already out: a payload queued
	// after it waits for the 100 ms one, which gives it two slots.
	s.RunUntil(60 * sim.Millisecond)
	n.Deliver(0, 3000)
	s.RunUntil(90 * sim.Millisecond)
	if got := n.StationRecvBytes(0); got != 0 {
		t.Errorf("downlink drained before it was scheduled: %d bytes", got)
	}
	s.RunUntil(160 * sim.Millisecond)
	if got := n.StationRecvBytes(0); got != 3000 {
		t.Errorf("downlink delivered %d, want 3000", got)
	}
}

func TestStationsSleepMostOfIdleFrames(t *testing.T) {
	s, n := newNet(3, 4, DefaultConfig())
	n.Start()
	s.RunUntil(10 * sim.Second)
	for i := 0; i < 4; i++ {
		p := n.StationEnergy(i)
		if p > 0.25 {
			t.Errorf("station %d avg power %.3f W, want < 0.25 W when idle", i, p)
		}
	}
}

func TestECMACBeatsIdleListening(t *testing.T) {
	// A station with light periodic traffic should still spend most of its
	// time asleep: energy far below CAM's ~1.35 W idle floor.
	cfg := DefaultConfig()
	s, n := newNet(4, 3, cfg)
	n.Start()
	sim.NewTicker(s, 500*sim.Millisecond, func() { n.Deliver(0, 16000) })
	s.RunUntil(20 * sim.Second)
	if p := n.StationEnergy(0); p > 0.4 {
		t.Errorf("avg power %.3f W under light load, want well below CAM 1.35 W", p)
	}
	if got := n.StationRecvBytes(0); got < 16000*35 {
		t.Errorf("delivered %d bytes, want ≥ %d", got, 16000*35)
	}
}

func TestLargeBacklogSpreadsAcrossFrames(t *testing.T) {
	cfg := DefaultConfig()
	s, n := newNet(5, 1, cfg)
	n.Start()
	// More than one frame's worth of slots: must take multiple superframes.
	avail := int((cfg.SuperframeLen - 100*sim.Microsecond) / cfg.SlotTime)
	big := cfg.BytesPerSlot() * avail * 3
	n.Deliver(0, big)
	s.RunUntil(120 * sim.Millisecond) // ~2 frames: not yet done
	if n.StationRecvBytes(0) >= big {
		t.Error("oversized burst finished too fast")
	}
	s.RunUntil(500 * sim.Millisecond)
	if got := n.StationRecvBytes(0); got != big {
		t.Errorf("delivered %d, want %d", got, big)
	}
}

func TestFairnessUnderContention(t *testing.T) {
	cfg := DefaultConfig()
	s, n := newNet(6, 3, cfg)
	n.Start()
	// Saturate: everyone always has a large backlog.
	for i := 0; i < 3; i++ {
		n.Deliver(i, 10_000_000)
	}
	s.RunUntil(5 * sim.Second)
	var lo, hi int
	for i := 0; i < 3; i++ {
		b := n.StationRecvBytes(i)
		if i == 0 || b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	if lo == 0 {
		t.Fatal("a station was starved")
	}
	if float64(hi)/float64(lo) > 1.5 {
		t.Errorf("rotation unfair: hi=%d lo=%d", hi, lo)
	}
}

func TestMeanDelayReported(t *testing.T) {
	s, n := newNet(7, 1, DefaultConfig())
	n.Start()
	n.Deliver(0, 1000)
	s.RunUntil(200 * sim.Millisecond)
	st := n.Stats()
	if st.MeanDelay <= 0 || st.MeanDelay > 200*sim.Millisecond {
		t.Errorf("mean delay = %v, want within (0, 200ms]", st.MeanDelay)
	}
}

func TestRegisterAfterStartPanics(t *testing.T) {
	s, n := newNet(8, 1, DefaultConfig())
	n.Start()
	defer func() {
		if recover() == nil {
			t.Error("late register accepted")
		}
	}()
	n.Register(9, radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle))
}

func TestDeliverUnknownStationPanics(t *testing.T) {
	_, n := newNet(9, 1, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("unknown station accepted")
		}
	}()
	n.Deliver(42, 100)
}

func TestLongRunStability(t *testing.T) {
	// Soak: random downlink over many superframes without panics and with
	// conservation of bytes.
	cfg := DefaultConfig()
	s, n := newNet(10, 5, cfg)
	n.Start()
	var sent int
	sentTo := make([]int, 5)
	sim.NewTicker(s, 120*sim.Millisecond, func() {
		to, bytes := s.Rand().Intn(5), 1500+s.Rand().Intn(4000)
		n.Deliver(to, bytes)
		sent += bytes
		sentTo[to] += bytes
	})
	s.RunUntil(60 * sim.Second)
	st := n.Stats()
	if st.BytesDownlink > sent {
		t.Errorf("delivered more downlink (%d) than sent (%d)", st.BytesDownlink, sent)
	}
	sum := 0
	for i := range 5 {
		got := n.StationRecvBytes(i)
		if got > sentTo[i] {
			t.Errorf("station %d received %d of %d bytes sent to it", i, got, sentTo[i])
		}
		sum += got
	}
	if sum != st.BytesDownlink {
		t.Errorf("stations received %d bytes in total, network counted %d", sum, st.BytesDownlink)
	}
	// Nearly everything should drain (load ≪ capacity).
	if float64(st.BytesDownlink) < 0.95*float64(sent)-8000 {
		t.Errorf("downlink drained %d of %d", st.BytesDownlink, sent)
	}
	if st.Superframes < 1000 {
		t.Errorf("superframes = %d, want ≥ 1000", st.Superframes)
	}
}

// StationRecvBytes returns delivered downlink bytes for a station.
func (n *Network) StationRecvBytes(id int) int { return n.byID[id].recvBytes }
