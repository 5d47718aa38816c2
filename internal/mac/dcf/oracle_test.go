package dcf

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/radio"
	"repro/internal/sim"
)

// node is the surface the differential test drives, implemented by the
// live Station and by the per-slot refStation of ref_test.go.
type node interface {
	Enqueue(f *frame.Frame)
	Doze()
	WakeUp(done func())
	SendAfter(gap sim.Time, f *frame.Frame)
	CanDoze() bool
	Awake() bool
	Stats() StationStats
	Device() *radio.Device
	hook(onReceive func(*frame.Frame), noAck bool)
	exchanging() bool
}

func (st *Station) hook(onReceive func(*frame.Frame), noAck bool) {
	st.OnReceive, st.NoAck = onReceive, noAck
}

func (st *refStation) hook(onReceive func(*frame.Frame), noAck bool) {
	st.OnReceive, st.NoAck = onReceive, noAck
}

// exchanging reports a frame on the air or an ACK awaited, when Doze
// would panic.
func (st *Station) exchanging() bool    { return st.inTx || st.waitAck }
func (st *refStation) exchanging() bool { return st.inTx || st.waitAck }

// oracleCase is one randomized DCF scenario.
type oracleCase struct {
	seed     int64
	stations int
	cfg      Config
	ber      float64 // > 0: a live Gilbert–Elliott channel; 0: error-free
	noAck    []bool  // per station: fire-and-forget uplink
	psm      []bool  // per station: dozes between beacons
	grid     bool    // arrivals on the 10 µs grid, else on any µs
	payload  int     // largest data payload, bytes
	gap      int     // mean arrival gap per station, µs
	splits   []sim.Time
	stops    []sim.Time // instants at which an event calls Stop
	naps     []sim.Time // instants at which an event dozes stations
	bursts   []sim.Time // instants at which a 10 µs ticker starts
}

func (c oracleCase) String() string {
	return fmt.Sprintf("seed=%d stations=%d cw=%d/%d rate=%g ber=%g noAck=%v psm=%v grid=%v gap=%dus splits=%v stops=%v naps=%v bursts=%v",
		c.seed, c.stations, c.cfg.CWMin, c.cfg.CWMax, c.cfg.BitRate, c.ber, c.noAck, c.psm, c.grid, c.gap, c.splits, c.stops, c.naps, c.bursts)
}

// newOracleCase draws scenario k: 1–12 stations plus an AP, small or
// default contention windows, an optional live channel, NoAck senders,
// PSM-style dozers, arrivals on or off the 10 µs grid, naps and ticker
// bursts on the grid, and a run split over several RunUntil calls, some
// cut short by Stop.
func newOracleCase(k int64) oracleCase {
	r := rand.New(rand.NewSource(k))
	c := oracleCase{seed: k, stations: 1 + r.Intn(12), cfg: Default80211b(), grid: r.Intn(2) == 0, payload: 1400}
	if c.grid && r.Intn(2) == 0 {
		// 10 µs per byte and a 200 µs preamble put every airtime, and so
		// every instant of the run, on the 10 µs grid: backoff boundaries
		// then coincide with arrivals, naps and other stations' events.
		c.cfg.BitRate, c.cfg.PLCPOverhead, c.payload = 0.8e6, 200*sim.Microsecond, 300
	}
	if r.Intn(2) == 0 {
		c.cfg.CWMin = 1 + r.Intn(7)
		c.cfg.CWMax = c.cfg.CWMin*2 + 1 + r.Intn(16)
	}
	if r.Intn(3) == 0 {
		c.ber = []float64{1e-6, 2e-5, 1e-4}[r.Intn(3)]
	}
	c.noAck = make([]bool, c.stations)
	c.psm = make([]bool, c.stations)
	for i := range c.stations {
		c.noAck[i] = r.Intn(5) == 0
		c.psm[i] = r.Intn(3) == 0
	}
	c.gap = []int{300, 2000, 8000}[r.Intn(3)]
	const horizon = 120 * sim.Millisecond
	var t sim.Time
	for t < horizon {
		t += sim.Time(1 + r.Intn(int(horizon/3)))
		if r.Intn(2) == 0 {
			t = t / 10 * 10
		}
		c.splits = append(c.splits, min(t, horizon))
	}
	for range r.Intn(4) {
		c.stops = append(c.stops, sim.Time(r.Intn(int(horizon)))/10*10)
	}
	for range r.Intn(40) {
		c.naps = append(c.naps, sim.Time(r.Intn(int(horizon)))/10*10)
	}
	for range r.Intn(20) {
		c.bursts = append(c.bursts, sim.Time(r.Intn(int(horizon)))/10*10)
	}
	return c
}

// oracleOutcome is everything a run leaves behind that the two engines
// must agree on.
type oracleOutcome struct {
	Stations []StationStats
	Energy   [][]uint64 // per node: Float64bits of total, transition and per-state energy
	Medium   Stats
	Now      sim.Time
	Draw     float64
}

// runOracle runs scenario c on the live engine or, with ref, on the
// per-slot reference.
func runOracle(c oracleCase, ref bool) oracleOutcome {
	s := sim.New(c.seed)
	var ch *channel.GilbertElliott
	if c.ber > 0 {
		ch = channel.NewGilbertElliott(s, channel.GEParams{
			MeanGood: 15 * sim.Millisecond, MeanBad: 3 * sim.Millisecond,
			BERGood: c.ber, BERBad: math.Min(0.5, 50*c.ber),
		})
	}
	var med interface{ Stats() Stats }
	var attach func(id int) node
	if ref {
		m := newRefMedium(s, c.cfg, ch)
		med, attach = m, func(id int) node {
			return newRefStation(id, m, radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle))
		}
	} else {
		m := NewMedium(s, c.cfg, ch)
		med, attach = m, func(id int) node {
			return NewStation(id, m, radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle))
		}
	}
	ap := attach(frame.AP)
	nodes := []node{ap}
	for range c.stations {
		nodes = append(nodes, attach(len(nodes)-1))
	}
	rng := s.Rand()
	seq := 0
	payload := func() int { seq++; return 1 + rng.Intn(c.payload) }
	gap := func() sim.Time {
		g := sim.Time(1 + rng.Intn(2*c.gap))
		if c.grid {
			g = (g + 9) / 10 * 10
		}
		return g
	}

	// Each station sends uplink data; the AP answers with downlink data to
	// it and, now and then, a broadcast, either contending for the medium
	// or, like a SIFS response, sent after a fixed gap of a few slots.
	for i := range c.stations {
		st := nodes[i+1]
		var arrive func()
		arrive = func() {
			switch r := rng.Intn(10); {
			case r < 5:
				st.Enqueue(frame.NewData(i, frame.AP, seq, payload()))
			case r < 7:
				ap.Enqueue(frame.NewData(frame.AP, i, seq, payload()))
			case r < 8:
				ap.Enqueue(frame.NewData(frame.AP, frame.Broadcast, seq, payload()))
			default:
				ap.SendAfter(sim.Time(10+rng.Intn(60)), frame.NewData(frame.AP, frame.Broadcast, seq, payload()))
			}
			s.Schedule(gap(), arrive)
		}
		s.Schedule(gap(), arrive)
	}

	// wake wakes a dozing station unless its radio is still mid-transition,
	// where a state change would panic.
	wake := func(st node) {
		if !st.Device().Transitioning() {
			st.WakeUp(nil)
		}
	}
	// PSM-style stations doze between 20 ms beacons: they wake 2 ms ahead
	// of each, and once the beacon is heard they doze as soon as they are
	// quiescent, retrying every millisecond until 2 ms before the next wake.
	const beacon, lead = 20 * sim.Millisecond, 2 * sim.Millisecond
	sim.NewTicker(s, beacon, func() {
		b := frame.NewBeacon(frame.NewTIM())
		ap.SendAfter(0, &b)
	})
	for i := range c.stations {
		st := nodes[i+1]
		var attemptDoze func()
		attemptDoze = func() {
			if s.Now()%beacon >= beacon-lead-2*sim.Millisecond || !st.Awake() {
				return
			}
			if st.CanDoze() {
				st.Doze()
				return
			}
			s.Schedule(sim.Millisecond, attemptDoze)
		}
		st.hook(func(f *frame.Frame) {
			if c.psm[i] && f.Kind == frame.Beacon {
				attemptDoze()
			}
		}, c.noAck[i])
		if !c.psm[i] {
			continue
		}
		st.Doze()
		sim.NewTicker(s, beacon, func() {
			s.Schedule(beacon-lead, func() { wake(st) })
		})
	}

	// At each nap instant, about half of the stations doze for 3 ms, when
	// they can: landing on a countdown event's own instant, the doze
	// cancels it before it fires.
	for _, t := range c.naps {
		s.At(t, func() {
			for _, st := range nodes[1:] {
				if rng.Intn(2) == 0 && st.Awake() && !st.exchanging() {
					st.Doze()
					s.Schedule(3*sim.Millisecond, func() { wake(st) })
				}
			}
		})
	}

	// A burst ticks every 10 µs for half a millisecond, now and then
	// sending a broadcast a few slots later. On the grid its ticks share
	// instants with stations' slot boundaries, and a tick that fires after
	// a station's countdown event can start a send inside that station's
	// next stretch: the stretch is exact only if it stops at the tick.
	for _, t := range c.bursts {
		s.At(t, func() {
			ticks := 0
			var tk *sim.Ticker
			tk = sim.NewTicker(s, 10*sim.Microsecond, func() {
				if ticks++; ticks == 50 {
					tk.Stop()
				}
				if rng.Intn(8) == 0 {
					ap.SendAfter(sim.Time(10+rng.Intn(60)), frame.NewData(frame.AP, frame.Broadcast, seq, payload()))
				}
			})
		})
	}

	stopped := false
	for _, t := range c.stops {
		s.At(t, func() { s.Stop(); stopped = true })
	}
	// Between RunUntil calls, and after each Stop, code outside the event
	// loop enqueues a frame or dozes or wakes a station.
	outside := func() {
		i := rng.Intn(c.stations)
		st := nodes[1+i]
		switch rng.Intn(3) {
		case 0:
			st.Enqueue(frame.NewData(i, frame.AP, seq, payload()))
		case 1:
			if st.Awake() && !st.exchanging() {
				st.Doze()
			}
		default:
			wake(st)
		}
	}
	for _, h := range c.splits {
		for s.Now() < h || stopped {
			stopped = false
			s.RunUntil(h)
			outside()
		}
	}

	out := oracleOutcome{Medium: med.Stats(), Now: s.Now(), Draw: rng.Float64()}
	for _, n := range nodes {
		out.Stations = append(out.Stations, n.Stats())
		m := n.Device().Meter()
		e := []uint64{math.Float64bits(m.TotalEnergy()), math.Float64bits(m.TransitionEnergy())}
		for st := radio.Off; st <= radio.TX; st++ {
			e = append(e, math.Float64bits(m.StateEnergy(st)))
		}
		out.Energy = append(out.Energy, e)
	}
	return out
}

// TestMatchesReference runs randomized scenarios on the live engine and
// on the per-slot reference: every station's counters, the medium's
// counters, each radio's energies (as bits), the final clock and the next
// random draw must agree exactly.
func TestMatchesReference(t *testing.T) {
	cases := int64(400)
	if testing.Short() {
		cases = 60
	}
	for k := int64(1); k <= cases; k++ {
		c := newOracleCase(k)
		got, want := runOracle(c, false), runOracle(c, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %v:\n got %+v\nwant %+v", c, got, want)
		}
	}
}

// A lone station counting 31 slots on an idle medium covers them with one
// countdown event, where one event per slot fires 31.
func TestIdleCountdownIsOneEvent(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s, nil)
	addStation(s, m, frame.AP)
	sta := addStation(s, m, 0)
	events := 0
	sta.countdown = sim.NewTimer(s, func() { events++; sta.onSlot() })
	sta.slots, sta.haveBO = 31, true
	sta.Enqueue(frame.NewData(0, frame.AP, 1, 500))
	s.Run()
	if got := sta.Stats().Sent; got != 1 {
		t.Fatalf("sent %d frames, want 1", got)
	}
	if events > 2 {
		t.Errorf("31 idle backoff slots fired %d countdown events, want at most 2", events)
	}
}
