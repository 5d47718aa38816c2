package metro

import (
	"repro/internal/radio"
	"repro/internal/sim"
)

// refModel is the per-attendance metro model the closed-form accounting
// replaced, kept as the bit-for-bit oracle of TestMatchesReference. Every
// attended beacon charges the station's sleep gap, wake, listen, beacon
// reception, poll service and doze to a refLedger row, one write at a time;
// detach and Finish read the row's energy back. The population bookkeeping
// (groups, live list) and the event streams match the model's, so the two
// draw identical random numbers in identical order; only the private id
// layout differs.
//
// It also counts every gap it clamps at zero, by cause, so the test can
// insist that its configurations exercise each closed-form correction.
type refModel struct {
	cfg Config
	s   *sim.Simulator
	led *refLedger

	apOf       []int32
	phaseOf    []int32
	pendFrames []int32
	pendBytes  []float64
	accounted  []sim.Time // time up to which the ledger row is charged
	attachedAt []sim.Time
	attended   []int32 // attendances since attach
	livePos    []int32

	live     []int32
	freeIDs  []int32
	groups   [][]int32
	groupPos []int32

	attachSeq int
	beaconIdx int64

	clamps refClamps
	rep    Report
}

// refClamps counts the gaps the reference clamped at zero, by cause.
type refClamps struct {
	firstWake  int // first wake within WakeLead of attach
	everyGap   int // WakeLead + BeaconAir exceeds the listen cycle
	spill      int // otherwise: a frame attendance's service ran past the next wake
	settleLate int // settled before the last attendance ended
}

// refLedger is a struct-of-arrays time-in-state account: one dwell column
// per power state and one transition-energy column, indexed by station id.
type refLedger struct {
	profile *radio.Profile
	dwell   [len(radio.Profile{}.Power)][]sim.Time
	transJ  []float64
}

func newRefLedger(p *radio.Profile, n int) *refLedger {
	l := &refLedger{profile: p, transJ: make([]float64, n)}
	for st := range l.dwell {
		l.dwell[st] = make([]sim.Time, n)
	}
	return l
}

func (l *refLedger) reset(id int32) {
	for st := range l.dwell {
		l.dwell[st][id] = 0
	}
	l.transJ[id] = 0
}

func (l *refLedger) charge(id int32, st radio.State, d sim.Time) { l.dwell[st][id] += d }

func (l *refLedger) transition(id int32, from, to radio.State) {
	l.transJ[id] += l.profile.TransitionCost(from, to).Energy
}

func (l *refLedger) energyJ(id int32) float64 {
	j := l.transJ[id]
	for st := range l.dwell {
		j += float64(l.dwell[st][id].Seconds() * l.profile.Power[st])
	}
	return j
}

func refRun(seed int64, cfg Config) (Report, refClamps) {
	s := sim.New(seed)
	m := newRef(s, cfg)
	m.start()
	s.RunUntil(cfg.Horizon)
	return m.finish(), m.clamps
}

func newRef(s *sim.Simulator, cfg Config) *refModel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.cap()
	m := &refModel{
		cfg:        cfg,
		s:          s,
		led:        newRefLedger(cfg.Profile, n),
		apOf:       make([]int32, n),
		phaseOf:    make([]int32, n),
		pendFrames: make([]int32, n),
		pendBytes:  make([]float64, n),
		accounted:  make([]sim.Time, n),
		attachedAt: make([]sim.Time, n),
		attended:   make([]int32, n),
		livePos:    make([]int32, n),
		groupPos:   make([]int32, n),
		live:       make([]int32, 0, n),
		freeIDs:    make([]int32, 0, n),
		groups:     make([][]int32, cfg.APs*cfg.ListenInterval),
	}
	// Ids are private to the model and invisible in the report, so the
	// reference hands them out in plain order.
	for id := n - 1; id >= 0; id-- {
		m.freeIDs = append(m.freeIDs, int32(id))
		m.livePos[id] = -1
	}
	for i := 0; i < cfg.Stations; i++ {
		m.attach()
	}
	return m
}

func (m *refModel) attach() {
	id := m.freeIDs[len(m.freeIDs)-1]
	m.freeIDs = m.freeIDs[:len(m.freeIDs)-1]
	k := m.cfg.ListenInterval
	ap, phase := int32(m.attachSeq%m.cfg.APs), int32(m.attachSeq/m.cfg.APs%k)
	m.attachSeq++

	m.led.reset(id)
	m.apOf[id], m.phaseOf[id] = ap, phase
	m.pendFrames[id], m.pendBytes[id] = 0, 0
	m.attended[id] = 0
	now := m.s.Now()
	m.accounted[id], m.attachedAt[id] = now, now
	m.livePos[id] = int32(len(m.live))
	m.live = append(m.live, id)
	g := int(ap)*k + int(phase)
	m.groupPos[id] = int32(len(m.groups[g]))
	m.groups[g] = append(m.groups[g], id)
}

// settle charges the sleep since the station's watermark, then books its
// energy and station-time.
func (m *refModel) settle(id int32) {
	now := m.s.Now()
	if d := now - m.accounted[id]; d > 0 {
		m.led.charge(id, radio.Sleep, d)
	} else if d < 0 {
		m.clamps.settleLate++
	}
	m.rep.EnergyJ += m.led.energyJ(id)
	m.rep.StationSec += (now - m.attachedAt[id]).Seconds()
}

func (m *refModel) detach(id int32) {
	m.settle(id)

	last := int32(len(m.live) - 1)
	if p := m.livePos[id]; p != last {
		moved := m.live[last]
		m.live[p] = moved
		m.livePos[moved] = p
	}
	m.live = m.live[:last]
	m.livePos[id] = -1

	g := int(m.apOf[id])*m.cfg.ListenInterval + int(m.phaseOf[id])
	grp := m.groups[g]
	p := m.groupPos[id]
	copy(grp[p:], grp[p+1:])
	grp = grp[:len(grp)-1]
	for _, other := range grp[p:] {
		m.groupPos[other]--
	}
	m.groups[g] = grp

	m.freeIDs = append(m.freeIDs, id)
}

func (m *refModel) frameAir(frames int32, bytes float64) sim.Time {
	total := float64(float64(frames)*float64(m.cfg.OverheadBytes)) + bytes
	return sim.FromSeconds(total * 8 / m.cfg.Profile.BitRate)
}

func (m *refModel) start() {
	cfg := m.cfg
	var onBeacon func()
	onBeacon = func() {
		m.beacon()
		if m.s.Now()+cfg.BeaconInterval <= cfg.Horizon {
			m.s.Schedule(cfg.BeaconInterval, onBeacon)
		}
	}
	m.s.Schedule(cfg.BeaconInterval, onBeacon)

	if cfg.RatePerStation > 0 {
		maxRate := float64(cfg.cap()) * cfg.RatePerStation
		frame := cfg.Frame.sampler()
		r := m.s.Rand()
		var onFrame func()
		onFrame = func() {
			if j := r.Intn(cfg.cap()); j < len(m.live) {
				id := m.live[j]
				m.pendFrames[id]++
				m.pendBytes[id] += frame.sample(r.Float64())
			}
			m.s.Schedule(expDelay(r.ExpFloat64(), maxRate), onFrame)
		}
		m.s.Schedule(expDelay(r.ExpFloat64(), maxRate), onFrame)
	}

	if cfg.ArrivalRate > 0 {
		r := m.s.Rand()
		var onJoin func()
		onJoin = func() {
			if len(m.live) < cfg.cap() {
				m.attach()
				m.rep.Arrivals++
			}
			m.s.Schedule(expDelay(r.ExpFloat64(), cfg.ArrivalRate), onJoin)
		}
		m.s.Schedule(expDelay(r.ExpFloat64(), cfg.ArrivalRate), onJoin)

		maxDeath := float64(cfg.cap()) / cfg.MeanLifetime.Seconds()
		var onDeath func()
		onDeath = func() {
			if j := r.Intn(cfg.cap()); j < len(m.live) {
				m.detach(m.live[j])
				m.rep.Departures++
			}
			m.s.Schedule(expDelay(r.ExpFloat64(), maxDeath), onDeath)
		}
		m.s.Schedule(expDelay(r.ExpFloat64(), maxDeath), onDeath)
	}
}

func (m *refModel) beacon() {
	m.beaconIdx++
	cfg := m.cfg
	k := cfg.ListenInterval
	phase := int(m.beaconIdx % int64(k))
	t := m.s.Now()
	for ap := 0; ap < cfg.APs; ap++ {
		var cum sim.Time
		for _, id := range m.groups[ap*k+phase] {
			if d := t - cfg.WakeLead - m.accounted[id]; d > 0 {
				m.led.charge(id, radio.Sleep, d)
			} else if d < 0 {
				switch {
				case m.attended[id] == 0:
					m.clamps.firstWake++
				case cfg.WakeLead+cfg.BeaconAir > sim.Time(k)*cfg.BeaconInterval:
					m.clamps.everyGap++
				default:
					m.clamps.spill++
				}
			}
			m.led.transition(id, radio.Sleep, radio.Idle)
			m.led.charge(id, radio.Idle, cfg.WakeLead)
			m.led.charge(id, radio.RX, cfg.BeaconAir)
			end := t + cfg.BeaconAir
			if f := m.pendFrames[id]; f > 0 {
				m.led.charge(id, radio.Idle, cum)
				tx := sim.Time(f) * cfg.PollAir
				rx := m.frameAir(f, m.pendBytes[id])
				m.led.charge(id, radio.TX, tx)
				m.led.charge(id, radio.RX, rx)
				end += cum + tx + rx
				cum += tx + rx
				m.rep.DeliveredBytes += m.pendBytes[id]
				m.rep.DeliveredFrames += int64(f)
				m.pendFrames[id], m.pendBytes[id] = 0, 0
			}
			m.led.transition(id, radio.Idle, radio.Sleep)
			m.accounted[id] = end
			m.attended[id]++
			m.rep.AttendedBeacons++
		}
	}
}

func (m *refModel) finish() Report {
	for _, id := range m.live {
		m.settle(id)
	}
	m.rep.Live = len(m.live)
	if m.rep.StationSec > 0 {
		m.rep.AvgPowerW = m.rep.EnergyJ / m.rep.StationSec
	}
	m.rep.DeliveredGoodputBps = m.rep.DeliveredBytes * 8 / m.cfg.Horizon.Seconds()
	return m.rep
}
