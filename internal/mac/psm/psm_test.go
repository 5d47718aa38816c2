package psm

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/mac/dcf"
	"repro/internal/radio"
	"repro/internal/sim"
)

type rig struct {
	s  *sim.Simulator
	m  *dcf.Medium
	ap *AP
}

func newRig(seed int64, cfg Config, ch *channel.GilbertElliott) *rig {
	s := sim.New(seed)
	m := dcf.NewMedium(s, dcf.Default80211b(), ch)
	apDev := radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
	ap := NewAP(s, m, apDev, cfg)
	return &rig{s: s, m: m, ap: ap}
}

func (r *rig) addClient(id int, cfg Config) *Client {
	dev := radio.NewDeviceInState(r.s, radio.WLAN80211b(), radio.Idle)
	return NewClient(r.s, r.m, dev, r.ap, id, cfg)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.WakeLead = bad.BeaconInterval
	if err := bad.Validate(); err == nil {
		t.Error("wake lead >= beacon interval accepted")
	}
	bad2 := DefaultConfig()
	bad2.ListenInterval = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero listen interval accepted")
	}
	for _, rt := range []sim.Time{0, -sim.Millisecond} {
		bad3 := DefaultConfig()
		bad3.RetrieveTimeout = rt
		if err := bad3.Validate(); err == nil {
			t.Errorf("retrieve timeout %v accepted", rt)
		}
	}
}

func TestBeaconsAreSent(t *testing.T) {
	r := newRig(1, DefaultConfig(), nil)
	r.s.RunUntil(1050 * sim.Millisecond)
	if got := r.ap.Stats().Beacons; got != 10 {
		t.Errorf("beacons = %d in 1.05s, want 10", got)
	}
}

func TestBufferedDeliveryViaTIMAndPoll(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(2, cfg, nil)
	cl := r.addClient(0, cfg)
	var got []int
	cl.OnData = func(f *frame.Frame) { got = append(got, f.Payload) }

	// Deliver while the client dozes: must be buffered, TIM-announced,
	// polled out after the next beacon.
	r.s.Schedule(20*sim.Millisecond, func() { r.ap.Deliver(0, 1200) })
	r.s.RunUntil(300 * sim.Millisecond)

	if len(got) != 1 || got[0] != 1200 {
		t.Fatalf("client got %v, want [1200]", got)
	}
	st := cl.Stats()
	if st.PollsSent != 1 {
		t.Errorf("polls = %d, want 1", st.PollsSent)
	}
	if r.ap.Buffered(0) != 0 {
		t.Errorf("AP still buffers %d frames", r.ap.Buffered(0))
	}
}

func TestMoreBitChainsRetrievals(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(3, cfg, nil)
	cl := r.addClient(0, cfg)
	count := 0
	cl.OnData = func(*frame.Frame) { count++ }
	r.s.Schedule(10*sim.Millisecond, func() {
		for i := 0; i < 5; i++ {
			r.ap.Deliver(0, 800)
		}
	})
	r.s.RunUntil(400 * sim.Millisecond)
	if count != 5 {
		t.Fatalf("client got %d frames, want 5 in one beacon cycle chain", count)
	}
	if polls := cl.Stats().PollsSent; polls != 5 {
		t.Errorf("polls = %d, want 5 (one per frame)", polls)
	}
}

func TestClientDozesWhenIdle(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(4, cfg, nil)
	cl := r.addClient(0, cfg)
	r.s.RunUntil(10 * sim.Second)
	m := cl.Station().Device().Meter()
	sleepFrac := m.StateFraction(radio.Sleep)
	if sleepFrac < 0.9 {
		t.Errorf("sleep fraction = %.3f, want ≥ 0.9 with no traffic", sleepFrac)
	}
	if heard := cl.Stats().BeaconsHeard; heard < 95 {
		t.Errorf("beacons heard = %d of ~100", heard)
	}
	// PSM with no traffic should cost well under a tenth of CAM idle power.
	if p := m.AveragePower(); p > 0.15 {
		t.Errorf("avg power = %.3f W, want < 0.15 W while dozing", p)
	}
}

func TestPSMSavesEnergyVsCAM(t *testing.T) {
	// Same light downlink load; PS client must use far less energy than a
	// CAM client while still receiving everything.
	cfg := DefaultConfig()
	run := func(psMode bool) (avgW float64, frames int) {
		r := newRig(5, cfg, nil)
		var recv int
		if psMode {
			cl := r.addClient(0, cfg)
			cl.OnData = func(*frame.Frame) { recv++ }
			deliverEvery(r, 0, 500*sim.Millisecond, 1000)
			r.s.RunUntil(20 * sim.Second)
			return cl.Station().Device().Meter().AveragePower(), recv
		}
		dev := radio.NewDeviceInState(r.s, radio.WLAN80211b(), radio.Idle)
		sta := dcf.NewStation(0, r.m, dev)
		sta.OnReceive = func(f *frame.Frame) {
			if f.Kind == frame.Data {
				recv++
			}
		}
		deliverEvery(r, 0, 500*sim.Millisecond, 1000)
		r.s.RunUntil(20 * sim.Second)
		return dev.Meter().AveragePower(), recv
	}
	psW, psFrames := run(true)
	camW, camFrames := run(false)
	if psFrames != camFrames {
		t.Errorf("PS client received %d, CAM %d — PSM must not lose traffic", psFrames, camFrames)
	}
	if psW > camW/5 {
		t.Errorf("PSM avg power %.3f W vs CAM %.3f W: expected ≥5x saving", psW, camW)
	}
}

func deliverEvery(r *rig, to int, period sim.Time, payload int) {
	sim.NewTicker(r.s, period, func() { r.ap.Deliver(to, payload) })
}

func TestCAMStationGetsDirectDelivery(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(6, cfg, nil)
	dev := radio.NewDeviceInState(r.s, radio.WLAN80211b(), radio.Idle)
	sta := dcf.NewStation(7, r.m, dev)
	recv := 0
	sta.OnReceive = func(f *frame.Frame) {
		if f.Kind == frame.Data {
			recv++
		}
	}
	r.ap.Deliver(7, 900)
	r.s.RunUntil(50 * sim.Millisecond)
	if recv != 1 {
		t.Errorf("CAM station received %d, want 1 (no beacon wait)", recv)
	}
	if r.ap.Stats().DirectSends != 1 {
		t.Errorf("DirectSends = %d, want 1", r.ap.Stats().DirectSends)
	}
}

func TestBufferOverflowDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferLimit = 3
	r := newRig(7, cfg, nil)
	r.addClient(0, cfg)
	for i := 0; i < 10; i++ {
		r.ap.Deliver(0, 100)
	}
	if r.ap.Buffered(0) != 3 {
		t.Errorf("buffered = %d, want 3", r.ap.Buffered(0))
	}
	if r.ap.Stats().BufferDrops != 7 {
		t.Errorf("drops = %d, want 7", r.ap.Stats().BufferDrops)
	}
}

func TestListenIntervalSkipsBeacons(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ListenInterval = 5
	r := newRig(8, cfg, nil)
	cl := r.addClient(0, cfg)
	r.s.RunUntil(5 * sim.Second) // 50 beacons
	heard := cl.Stats().BeaconsHeard
	if heard < 8 || heard > 12 {
		t.Errorf("heard %d beacons with listen interval 5 over 50, want ~10", heard)
	}
}

func TestLossyChannelStillDelivers(t *testing.T) {
	cfg := DefaultConfig()
	s := sim.New(9)
	ch := channel.NewGilbertElliott(s, channel.GEParams{
		MeanGood: sim.Hour, MeanBad: sim.Second, BERGood: 1e-5, BERBad: 1e-3})
	ch.Freeze()
	m := dcf.NewMedium(s, dcf.Default80211b(), ch)
	apDev := radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
	ap := NewAP(s, m, apDev, cfg)
	dev := radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
	cl := NewClient(s, m, dev, ap, 0, cfg)
	recv := 0
	cl.OnData = func(*frame.Frame) { recv++ }
	const n = 30
	for i := 0; i < n; i++ {
		d := sim.Time(i) * 300 * sim.Millisecond
		s.At(d+sim.Millisecond, func() { ap.Deliver(0, 1200) })
	}
	s.RunUntil(30 * sim.Second)
	if recv != n {
		t.Errorf("delivered %d of %d on lossy channel (beacon retries must recover)", recv, n)
	}
}

func TestTwoClientsIndependentBuffers(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(10, cfg, nil)
	c0 := r.addClient(0, cfg)
	c1 := r.addClient(1, cfg)
	var got0, got1 int
	c0.OnData = func(*frame.Frame) { got0++ }
	c1.OnData = func(*frame.Frame) { got1++ }
	r.s.Schedule(5*sim.Millisecond, func() {
		r.ap.Deliver(0, 500)
		r.ap.Deliver(0, 500)
		r.ap.Deliver(1, 700)
	})
	r.s.RunUntil(500 * sim.Millisecond)
	if got0 != 2 || got1 != 1 {
		t.Errorf("client deliveries = %d/%d, want 2/1", got0, got1)
	}
}

// Frames travel by value, so the AP matches the station queue's copy of a
// served head by sequence number. On a bursty Gilbert–Elliott channel
// poll responses are retried, some are dropped after the retry limit and
// served again under the same sequence number, and ACK losses make the
// client's MAC discard duplicates. The AP must still retire exactly the
// acknowledged head: the counters below are those of the earlier
// implementation, which held frames by pointer and matched the head by
// pointer identity.
func TestLossyPollResponsesRetireAckedHead(t *testing.T) {
	cfg := DefaultConfig()
	s := sim.New(31)
	ch := channel.NewGilbertElliott(s, channel.GEParams{
		MeanGood: 2 * sim.Second, MeanBad: 400 * sim.Millisecond, BERGood: 2e-5, BERBad: 1e-3})
	m := dcf.NewMedium(s, dcf.Default80211b(), ch)
	ap := NewAP(s, m, radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle), cfg)
	var cls []*Client
	last := []int{0, 0}
	for id := range 2 {
		cl := NewClient(s, m, radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle), ap, id, cfg)
		cl.OnData = func(f *frame.Frame) {
			if f.To != id || f.Seq <= last[id] {
				t.Errorf("client %d got frame to %d seq %d after seq %d", id, f.To, f.Seq, last[id])
			}
			last[id] = f.Seq
		}
		cls = append(cls, cl)
	}
	// Watch the AP's own completions: a poll response dropped after the
	// retry limit stays at the buffer head and goes out again later.
	dropped := map[int]bool{}
	resent := 0
	onSent := ap.Station().OnSent
	ap.Station().OnSent = func(f *frame.Frame, ok bool) {
		if f.Kind == frame.Data {
			if !ok {
				dropped[f.Seq] = true
			} else if dropped[f.Seq] {
				resent++
			}
		}
		onSent(f, ok)
	}
	sim.NewTicker(s, 70*sim.Millisecond, func() {
		ap.Deliver(0, 1000)
		ap.Deliver(1, 600)
	})
	s.RunUntil(60 * sim.Second)

	if st := ap.Station().Stats(); st.Retries == 0 || st.Dropped == 0 || resent == 0 {
		t.Fatalf("channel too clean: AP retries %d, drops %d, re-served heads %d", st.Retries, st.Dropped, resent)
	}
	if got := ap.Stats().PollsServed; got != 1868 {
		t.Errorf("PollsServed = %d, want 1868", got)
	}
	for id, want := range []struct{ buffered, frames, bytes int }{{2, 851, 851000}, {2, 853, 511800}} {
		st := cls[id].Stats()
		if got := ap.Buffered(id); got != want.buffered {
			t.Errorf("client %d: AP buffers %d frames, want %d", id, got, want.buffered)
		}
		if st.FramesRecv != want.frames || st.BytesRecv != want.bytes {
			t.Errorf("client %d: received %d frames / %d bytes, want %d / %d",
				id, st.FramesRecv, st.BytesRecv, want.frames, want.bytes)
		}
	}
}

// A beacon can wait in the AP's queue past the next TBTT, behind a
// backlog of direct frames to a CAM station. Each queued beacon must still
// air the TIM it was built with, not the one a later beacon rebuilt: the
// AP gives every beacon in flight its own TIM.
func TestQueuedBeaconsKeepTheirTIM(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(23, cfg, nil)
	r.addClient(0, cfg)
	var want []bool // per beacon: whether client 0 had frames buffered
	sim.NewTicker(r.s, cfg.BeaconInterval, func() { want = append(want, r.ap.Buffered(0) > 0) })
	sniffer := dcf.NewStation(7, r.m, radio.NewDeviceInState(r.s, radio.WLAN80211b(), radio.Idle))
	late, heard := 0, 0
	sniffer.OnReceive = func(f *frame.Frame) {
		if f.Kind != frame.Beacon {
			return
		}
		// Beacons air in the order the AP built them, one per TBTT.
		k := heard
		heard++
		if r.s.Now() > sim.Time(k+2)*cfg.BeaconInterval {
			late++
		}
		if got := f.TIM.Indicated(0); got != want[k] {
			t.Errorf("beacon %d aired at %v indicates client 0 = %v, built with %v", k, r.s.Now(), got, want[k])
		}
	}
	r.s.At(50*sim.Millisecond, func() {
		for range 300 {
			r.ap.Deliver(7, frame.MaxPayload)
		}
	})
	r.s.At(150*sim.Millisecond, func() { r.ap.Deliver(0, 500) })
	r.s.RunUntil(2 * sim.Second)
	if late == 0 || heard < 15 {
		t.Fatalf("heard %d beacons, %d of them after the next TBTT: the backlog did not delay them", heard, late)
	}
}

// Station exposes the AP's underlying DCF station (for stats and tests).
func (ap *AP) Station() *dcf.Station { return ap.sta }

// Stats returns a copy of the AP counters.
func (ap *AP) Stats() APStats { return ap.stats }

// Buffered returns the number of frames currently buffered for a station.
func (ap *AP) Buffered(sta int) int {
	if st := ap.stations[sta]; st != nil {
		return len(st.buf)
	}
	return 0
}

// Stats returns a copy of the client counters.
func (c *Client) Stats() ClientStats { return c.stats }
