package dcf

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/radio"
	"repro/internal/sim"
)

func newTestMedium(s *sim.Simulator, ch *channel.GilbertElliott) *Medium {
	return NewMedium(s, Default80211b(), ch)
}

func addStation(s *sim.Simulator, m *Medium, id int) *Station {
	return NewStation(id, m, radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle))
}

// TestConfigValidate breaks one field at a time: Validate must reject each
// bad value, and NewMedium must panic with Validate's error instead of
// failing mid-run (NaN bit rates and negative overheads used to pass and
// then panic with "sim: negative delay").
func TestConfigValidate(t *testing.T) {
	if err := Default80211b().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"zero slot", func(c *Config) { c.SlotTime = 0 }},
		{"zero SIFS", func(c *Config) { c.SIFS = 0 }},
		{"DIFS = SIFS", func(c *Config) { c.DIFS = c.SIFS }},
		{"zero CWMin", func(c *Config) { c.CWMin = 0 }},
		{"CWMax < CWMin", func(c *Config) { c.CWMax = 1 }},
		{"CWMax above 802.11's", func(c *Config) { c.CWMax = maxCW + 1 }},
		{"NaN bit rate", func(c *Config) { c.BitRate = math.NaN() }},
		{"+Inf bit rate", func(c *Config) { c.BitRate = math.Inf(1) }},
		{"-Inf bit rate", func(c *Config) { c.BitRate = math.Inf(-1) }},
		{"zero bit rate", func(c *Config) { c.BitRate = 0 }},
		{"negative bit rate", func(c *Config) { c.BitRate = -11e6 }},
		{"negative PLCP overhead", func(c *Config) { c.PLCPOverhead = -500 * sim.Microsecond }},
		{"negative ACK timeout", func(c *Config) { c.AckTimeout = -sim.Millisecond }},
		{"negative retry limit", func(c *Config) { c.RetryLimit = -1 }},
	} {
		cfg := Default80211b()
		c.edit(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		func() {
			defer func() {
				if got, ok := recover().(error); !ok || got.Error() != err.Error() {
					t.Errorf("%s: NewMedium panicked with %v, want Validate's error %v", c.name, got, err)
				}
			}()
			NewMedium(sim.New(1), cfg, nil)
		}()
	}
	edge := Default80211b()
	edge.CWMax, edge.PLCPOverhead, edge.AckTimeout, edge.RetryLimit = maxCW, 0, 0, 0
	if err := edge.Validate(); err != nil {
		t.Errorf("boundary config rejected: %v", err)
	}
}

func TestAirTime(t *testing.T) {
	cfg := Default80211b()
	// 1375 bytes at 11 Mb/s = 1 ms + 192 us preamble
	want := sim.Millisecond + 192*sim.Microsecond
	if got := cfg.AirTime(1375); got != want {
		t.Errorf("AirTime = %v, want %v", got, want)
	}
}

func TestSingleFrameDelivery(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s, nil)
	ap := addStation(s, m, frame.AP)
	sta := addStation(s, m, 0)

	var got []frame.Frame // copies: f is valid only during the callback
	ap.OnReceive = func(f *frame.Frame) { got = append(got, *f) }
	sentOK := false
	sta.OnSent = func(_ *frame.Frame, ok bool) { sentOK = ok }

	sta.Enqueue(frame.NewData(0, frame.AP, 1, 1000))
	s.Run()

	if len(got) != 1 || got[0].Payload != 1000 {
		t.Fatalf("AP received %d frames, want 1", len(got))
	}
	if !sentOK {
		t.Error("sender did not observe success")
	}
	st := sta.Stats()
	if st.Sent != 1 || st.Dropped != 0 || st.Retries != 0 {
		t.Errorf("station stats = %+v", st)
	}
	ms := m.Stats()
	if ms.Collisions != 0 {
		t.Errorf("collisions = %d on a single-station medium", ms.Collisions)
	}
	// data + ack
	if ms.Transmissions != 2 {
		t.Errorf("transmissions = %d, want 2", ms.Transmissions)
	}
}

func TestMultipleFramesInOrder(t *testing.T) {
	s := sim.New(2)
	m := newTestMedium(s, nil)
	ap := addStation(s, m, frame.AP)
	sta := addStation(s, m, 0)
	var seqs []int
	ap.OnReceive = func(f *frame.Frame) { seqs = append(seqs, f.Seq) }
	for i := 0; i < 20; i++ {
		sta.Enqueue(frame.NewData(0, frame.AP, i, 500))
	}
	s.Run()
	if len(seqs) != 20 {
		t.Fatalf("received %d, want 20", len(seqs))
	}
	for i, q := range seqs {
		if q != i {
			t.Fatalf("out of order: %v", seqs)
		}
	}
}

func TestContentionBetweenStations(t *testing.T) {
	s := sim.New(3)
	m := newTestMedium(s, nil)
	ap := addStation(s, m, frame.AP)
	recv := 0
	ap.OnReceive = func(*frame.Frame) { recv++ }
	const n = 5
	const per = 40
	for id := 0; id < n; id++ {
		sta := addStation(s, m, id)
		for k := 0; k < per; k++ {
			sta.Enqueue(frame.NewData(id, frame.AP, k, 700))
		}
	}
	s.Run()
	if recv != n*per {
		t.Errorf("delivered %d, want %d (retries should recover all collisions)", recv, n*per)
	}
	if m.Stats().Collisions == 0 {
		t.Error("expected some collisions among 5 saturated stations")
	}
}

func TestRetryOnChannelErrors(t *testing.T) {
	s := sim.New(4)
	// Moderately lossy channel: every frame has a visible chance of
	// corruption, retries must recover.
	ch := channel.NewGilbertElliott(s, channel.GEParams{
		MeanGood: sim.Hour, MeanBad: sim.Second, BERGood: 2e-5, BERBad: 1e-3})
	ch.Freeze()
	m := newTestMedium(s, ch)
	ap := addStation(s, m, frame.AP)
	sta := addStation(s, m, 0)
	recv := 0
	ap.OnReceive = func(*frame.Frame) { recv++ }
	const n = 200
	for i := 0; i < n; i++ {
		sta.Enqueue(frame.NewData(0, frame.AP, i, 1400))
	}
	s.Run()
	st := sta.Stats()
	if st.Retries == 0 {
		t.Error("expected retries on a lossy channel")
	}
	if recv != n {
		t.Errorf("delivered %d, want %d", recv, n)
	}
	if st.Dropped != 0 {
		t.Errorf("dropped %d frames at PER≈20%%; retry limit 7 should recover all", st.Dropped)
	}
}

func TestDropAfterRetryLimit(t *testing.T) {
	s := sim.New(5)
	ch := channel.NewGilbertElliott(s, channel.GEParams{
		MeanGood: sim.Second, MeanBad: sim.Hour, BERGood: 1e-6, BERBad: 0.5})
	ch.Freeze()
	ch.ForceState(channel.Bad) // every frame corrupted
	m := newTestMedium(s, ch)
	addStation(s, m, frame.AP)
	sta := addStation(s, m, 0)
	dropped := false
	sta.OnSent = func(_ *frame.Frame, ok bool) { dropped = !ok }
	sta.Enqueue(frame.NewData(0, frame.AP, 1, 1000))
	s.Run()
	if !dropped {
		t.Error("frame not dropped on a dead channel")
	}
	st := sta.Stats()
	if st.Dropped != 1 || st.Sent != 0 {
		t.Errorf("stats = %+v, want 1 drop", st)
	}
	if st.Retries != m.Config().RetryLimit+1 {
		t.Errorf("retries = %d, want %d", st.Retries, m.Config().RetryLimit+1)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	s := sim.New(6)
	m := newTestMedium(s, nil)
	ap := addStation(s, m, frame.AP)
	sta := addStation(s, m, 0)
	recv := 0
	ap.OnReceive = func(*frame.Frame) { recv++ }
	// Same sequence number twice models a MAC retransmission whose ACK was
	// lost: the receiver must ACK both but deliver once.
	sta.Enqueue(frame.NewData(0, frame.AP, 7, 100))
	sta.Enqueue(frame.NewData(0, frame.AP, 7, 100))
	s.Run()
	if recv != 1 {
		t.Errorf("delivered %d, want 1 (duplicate suppressed)", recv)
	}
	if got := sta.Stats().Sent; got != 2 {
		t.Errorf("sender Sent = %d, want 2 (both ACKed)", got)
	}
}

func TestDozeMissesTraffic(t *testing.T) {
	s := sim.New(7)
	m := newTestMedium(s, nil)
	ap := addStation(s, m, frame.AP)
	sta := addStation(s, m, 0)
	recv := 0
	sta.OnReceive = func(*frame.Frame) { recv++ }
	sta.Doze()
	if sta.Awake() {
		t.Fatal("station still awake after Doze")
	}
	ap.NoAck = true // nobody will ACK a sleeping station
	ap.Enqueue(frame.NewData(frame.AP, 0, 1, 500))
	s.Run()
	if recv != 0 {
		t.Error("dozing station received a frame")
	}
	if sta.Device().State() != radio.Sleep {
		t.Errorf("radio state = %v, want sleep", sta.Device().State())
	}
}

func TestWakeResumesQueuedTraffic(t *testing.T) {
	s := sim.New(8)
	m := newTestMedium(s, nil)
	ap := addStation(s, m, frame.AP)
	sta := addStation(s, m, 0)
	recv := 0
	ap.OnReceive = func(*frame.Frame) { recv++ }
	sta.Doze()
	sta.Enqueue(frame.NewData(0, frame.AP, 1, 100)) // queued while asleep
	s.RunUntil(50 * sim.Millisecond)
	if recv != 0 {
		t.Fatal("frame sent while asleep")
	}
	woke := false
	sta.WakeUp(func() { woke = true })
	s.Run()
	if !woke {
		t.Error("wake callback missing")
	}
	if recv != 1 {
		t.Errorf("delivered %d after wake, want 1", recv)
	}
}

func TestDozeDuringExchangePanics(t *testing.T) {
	s := sim.New(9)
	m := newTestMedium(s, nil)
	addStation(s, m, frame.AP)
	sta := addStation(s, m, 0)
	_ = sta
	panicked := false
	ap := m.Station(frame.AP)
	ap.OnReceive = func(*frame.Frame) {
		// The sender is now waiting for our ACK; dozing must be rejected.
		s.Schedule(sim.Microsecond, func() {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			sta.Doze()
		})
	}
	sta.Enqueue(frame.NewData(0, frame.AP, 1, 1000))
	s.Run()
	if !panicked {
		t.Error("doze while awaiting ACK did not panic")
	}
}

func TestIdleListeningDominatesLightTraffic(t *testing.T) {
	// The paper's phy-layer observation: with light traffic an unmanaged
	// WLAN station spends ~90% of its time (and energy) listening.
	s := sim.New(10)
	m := newTestMedium(s, nil)
	ap := addStation(s, m, frame.AP)
	sta := addStation(s, m, 0)
	_ = ap
	// One 1000-byte frame every 100 ms for 10 s — a light interactive load.
	var send func(i int)
	send = func(i int) {
		if i >= 100 {
			return
		}
		sta.Enqueue(frame.NewData(0, frame.AP, i, 1000))
		s.Schedule(100*sim.Millisecond, func() { send(i + 1) })
	}
	send(0)
	s.RunUntil(10 * sim.Second)
	meter := sta.Device().Meter()
	idleFrac := meter.StateFraction(radio.Idle)
	if idleFrac < 0.9 {
		t.Errorf("idle fraction = %.3f, want ≥ 0.9 under light traffic", idleFrac)
	}
	if meter.AveragePower() < 1.0 {
		t.Errorf("avg power = %.2f W; CAM listening should cost >1 W", meter.AveragePower())
	}
}

func TestBroadcastReachesAllAwake(t *testing.T) {
	s := sim.New(11)
	m := newTestMedium(s, nil)
	ap := addStation(s, m, frame.AP)
	var got [3]int
	for id := 0; id < 3; id++ {
		id := id
		sta := addStation(s, m, id)
		sta.OnReceive = func(*frame.Frame) { got[id]++ }
		if id == 2 {
			sta.Doze()
		}
	}
	ap.Enqueue(&frame.Frame{Kind: frame.Data, From: frame.AP, To: frame.Broadcast, Payload: 200})
	s.Run()
	if got[0] != 1 || got[1] != 1 {
		t.Errorf("awake stations got %v, want 1 each", got)
	}
	if got[2] != 0 {
		t.Error("dozing station heard a broadcast")
	}
}

func TestDuplicateStationIDPanics(t *testing.T) {
	s := sim.New(12)
	m := newTestMedium(s, nil)
	addStation(s, m, 3)
	defer func() {
		if recover() == nil {
			t.Error("duplicate id accepted")
		}
	}()
	addStation(s, m, 3)
}

func TestMediumStationLookup(t *testing.T) {
	s := sim.New(13)
	m := newTestMedium(s, nil)
	sta := addStation(s, m, 4)
	if m.Station(4) != sta {
		t.Error("Station lookup failed")
	}
	if m.Station(99) != nil {
		t.Error("missing station should be nil")
	}
}

func TestSendAfterSkippedWhenAsleep(t *testing.T) {
	s := sim.New(14)
	m := newTestMedium(s, nil)
	sta := addStation(s, m, 0)
	ack := frame.NewAck(0, 1)
	sta.SendAfter(sim.Millisecond, &ack)
	s.Schedule(500*sim.Microsecond, func() { sta.Doze() })
	s.Run()
	if m.Stats().Transmissions != 0 {
		t.Error("sleeping station transmitted")
	}
}

// The steady-state DCF path allocates nothing: the queue, the in-flight
// record and the SIFS-separated ACK all hold frames by value, so once the
// first drain has warmed the pools, a station draining k more data frames
// (each ACKed by the AP) allocates nothing at all.
func TestSteadyStateDrainAllocatesNothing(t *testing.T) {
	const k, runs = 32, 10
	s := sim.New(15)
	m := newTestMedium(s, nil)
	ap := addStation(s, m, frame.AP)
	sta := addStation(s, m, 0)
	recv := 0
	ap.OnReceive = func(*frame.Frame) { recv++ }
	seq := 0
	drain := func() {
		for range k {
			seq++
			sta.Enqueue(frame.NewData(0, frame.AP, seq, 1000))
		}
		s.Run()
	}
	allocs := testing.AllocsPerRun(runs, drain)
	if want := (runs + 1) * k; recv != want || sta.QueueLen() != 0 { // AllocsPerRun adds a warm-up run
		t.Fatalf("delivered %d of %d frames, %d still queued", recv, want, sta.QueueLen())
	}
	if allocs != 0 {
		t.Errorf("draining %d frames allocated %.1f times per run, want 0", k, allocs)
	}
}

// lazyDozeProfile is 802.11b with a free Idle→Sleep transition, so a test
// can put a woken radio back to sleep at the very instant its wake ends.
func lazyDozeProfile() *radio.Profile {
	p := radio.WLAN80211b()
	p.Transitions[radio.Idle][radio.Sleep] = radio.Transition{}
	return p
}

// Two wakes whose radio transitions overlap: the second starts at exactly
// the first one's transEnd, before that end event fires. Each done runs at
// its own transition's end, in call order.
func TestOverlappingWakesKeepDoneOrder(t *testing.T) {
	s := sim.New(16)
	m := newTestMedium(s, nil)
	p := lazyDozeProfile()
	sta := NewStation(0, m, radio.NewDeviceInState(s, p, radio.Idle))
	lat := p.TransitionCost(radio.Sleep, radio.Idle).Latency
	var got []int
	var at []sim.Time
	done := func(id int) func() {
		return func() { got = append(got, id); at = append(at, s.Now()) }
	}
	sta.Doze()
	// Scheduled before the first wake, so it fires ahead of that wake's
	// end event at the same instant.
	s.At(lat, func() {
		sta.Device().SetState(radio.Sleep, nil)
		sta.WakeUp(done(2))
	})
	sta.WakeUp(done(1))
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 || at[0] != lat || at[1] != 2*lat {
		t.Fatalf("wake dones %v at %v, want [1 2] at [%v %v]", got, at, lat, 2*lat)
	}
	if !sta.Awake() || sta.Device().State() != radio.Idle {
		t.Errorf("station awake=%v radio %v, want awake in Idle", sta.Awake(), sta.Device().State())
	}
}

// A wake requested while an earlier wake's end event is still queued but
// the radio is already Idle completes synchronously, ahead of the earlier
// one; both dones run.
func TestWakeDuringPendingWakeEndCompletesFirst(t *testing.T) {
	s := sim.New(17)
	m := newTestMedium(s, nil)
	sta := addStation(s, m, 0)
	sta.Doze()
	s.Run() // let the Idle→Sleep transition settle
	end := s.Now() + sta.Device().TransitionLatency(radio.Idle)
	var got []int
	s.At(end, func() { sta.WakeUp(func() { got = append(got, 2) }) })
	sta.WakeUp(func() { got = append(got, 1) })
	s.Run()
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("wake dones ran as %v, want [2 1]", got)
	}
}

// Config returns the medium's timing configuration.
func (m *Medium) Config() Config { return m.cfg }

// Station returns the attached station with the given id, or nil.
func (m *Medium) Station(id int) *Station { return m.nodes[id] }

// QueueLen returns the number of frames waiting (including one in flight).
func (st *Station) QueueLen() int { return len(st.queue) }
