// Package metro simulates metropolitan-scale populations of 802.11
// power-save stations — 10⁵–10⁶ clients across many APs in one process —
// at event and memory costs per station low enough to run on one core.
//
// Two structural decisions buy the scale:
//
//   - Aggregation: instead of per-station timers, the model runs one global
//     beacon event, one aggregated Poisson downlink stream (rate n·λ,
//     thinned uniformly over live stations) and one aggregated death
//     process. The event queue holds a handful of events regardless of
//     population size, so the kernel's heap stays within a cache line or
//     two.
//
//   - Struct-of-arrays state: every per-station quantity is a column
//     indexed by station id (pending frames, pending bytes, AP, listen
//     phase, accounting watermark), not a struct per station. New hands
//     the initial population ids in group order, so each (AP, listen
//     phase) group owns one consecutive id range and beacon processing
//     walks it sequentially through dense arrays; churn recycles ids with
//     O(1) row resets.
//
// The PSM semantics follow the paper's legacy-PSM model: a station sleeps
// between beacons, wakes every ListenInterval-th beacon a WakeLead early,
// receives the beacon, and if the TIM announces buffered frames it stays
// awake, waits for the stations polled before it (attach order within its
// AP), then PS-Polls each frame and receives it. Everything is charged to a
// power.Ledger against the radio profile's calibration.
//
// Every aggregate the simulation produces has a closed-form expectation in
// the style of Agrawal et al.'s analytical PSM energy models; see
// analytic.go. Experiments tagged [analytic] assert sim-vs-model agreement.
package metro

import (
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Pareto is a bounded Pareto frame-size distribution in bytes — the
// heavy-tailed mix (many small frames, occasional large ones) of metro
// downlink traffic.
type Pareto struct {
	Alpha    float64 // shape; must be > 0 and ≠ 1
	MinBytes float64
	MaxBytes float64
}

// Mean returns the distribution's expected value in closed form.
func (p Pareto) Mean() float64 {
	a, l, h := p.Alpha, p.MinBytes, p.MaxBytes
	return math.Pow(l, a) / (1 - math.Pow(l/h, a)) * a / (a - 1) *
		(math.Pow(l, 1-a) - math.Pow(h, 1-a))
}

// Sample inverts the CDF at u ∈ [0, 1).
func (p Pareto) Sample(u float64) float64 {
	return p.sampler().sample(u)
}

// paretoSampler is a Pareto's inverse CDF with its draw-independent terms
// precomputed, so each sample costs one Pow instead of two.
type paretoSampler struct {
	min  float64 // l
	span float64 // 1 − (l/h)^α
	exp  float64 // −1/α
}

func (p Pareto) sampler() paretoSampler {
	a, l, h := p.Alpha, p.MinBytes, p.MaxBytes
	return paretoSampler{min: l, span: 1 - math.Pow(l/h, a), exp: -1 / a}
}

func (s paretoSampler) sample(u float64) float64 {
	return float64(s.min * math.Pow(1-float64(u*s.span), s.exp))
}

// Config parameterizes one metro scenario.
type Config struct {
	APs      int // access points; stations associate round-robin
	Stations int // initial population

	// MaxStations caps the id space under churn (0 = Stations). The
	// aggregated arrival/death processes are thinned against this cap, so
	// it also bounds memory: every column is allocated to MaxStations once,
	// up front.
	MaxStations int

	BeaconInterval sim.Time
	ListenInterval int      // station wakes every K-th beacon
	WakeLead       sim.Time // idle time before the beacon (radio settling)
	BeaconAir      sim.Time // beacon reception time (RX)
	PollAir        sim.Time // one PS-Poll transmission (TX)
	OverheadBytes  int      // per-frame MAC/PHY overhead on the data frame

	RatePerStation float64 // downlink frames/s per live station (Poisson)
	Frame          Pareto  // frame payload size distribution

	// Churn: stations join as a Poisson process of ArrivalRate stations/s
	// and stay for an exponential MeanLifetime. Zero ArrivalRate disables
	// churn (the initial population is immortal).
	ArrivalRate  float64
	MeanLifetime sim.Time

	Horizon sim.Time
	Profile *radio.Profile
}

func (c Config) cap() int {
	if c.MaxStations > 0 {
		return c.MaxStations
	}
	return c.Stations
}

// Validate rejects configurations the model (and its closed form) cannot
// represent.
func (c Config) Validate() error {
	switch {
	case c.APs <= 0:
		return fmt.Errorf("metro: APs must be positive")
	case c.Stations < 0 || c.cap() < c.Stations:
		return fmt.Errorf("metro: Stations %d outside [0, MaxStations %d]", c.Stations, c.cap())
	case c.BeaconInterval <= 0 || c.ListenInterval <= 0:
		return fmt.Errorf("metro: beacon/listen intervals must be positive")
	case c.RatePerStation < 0:
		return fmt.Errorf("metro: negative traffic rate")
	case c.Frame.Alpha <= 0 || c.Frame.Alpha == 1 || c.Frame.MinBytes <= 0 || c.Frame.MaxBytes <= c.Frame.MinBytes:
		return fmt.Errorf("metro: bounded Pareto needs 0<alpha≠1 and 0<min<max")
	case c.ArrivalRate > 0 && c.MeanLifetime <= 0:
		return fmt.Errorf("metro: churn needs a positive MeanLifetime")
	case c.Horizon <= 0:
		return fmt.Errorf("metro: Horizon must be positive")
	case c.Profile == nil:
		return fmt.Errorf("metro: missing radio profile")
	}
	return nil
}

// Report carries a run's aggregates.
type Report struct {
	Live       int // stations alive at the horizon
	Arrivals   int // stations that joined (excluding the initial population)
	Departures int // stations that churned out

	EnergyJ             float64
	StationSec          float64 // ∫ live-population dt: per-station-time normalizer
	AvgPowerW           float64 // EnergyJ / StationSec
	DeliveredBytes      float64
	DeliveredGoodputBps float64 // DeliveredBytes·8 / Horizon
	DeliveredFrames     int64
	AttendedBeacons     int64
}

// Model is one metro population wired into a simulator. New builds it,
// Start arms the aggregated processes, and Finish (after running the
// simulator to the horizon) closes the books and returns the Report.
type Model struct {
	cfg Config
	s   *sim.Simulator
	led *power.Ledger

	// Per-station columns, indexed by station id ∈ [0, cap).
	apOf       []int32
	phaseOf    []int32
	pendFrames []int32
	pendBytes  []float64
	accounted  []sim.Time // time up to which the ledger row is charged
	attachedAt []sim.Time
	livePos    []int32 // index into live, -1 when dead

	live    []int32 // live ids; swap-remove order for O(1) uniform picks
	freeIDs []int32 // recycled ids, LIFO

	// groups[ap·K+phase] lists that group's live station ids in attach
	// order — the deterministic service order within an attended beacon.
	// groupPos[id] is the station's index in its group.
	groups   [][]int32
	groupPos []int32

	attachSeq int   // drives the ap/phase assignment lattice
	beaconIdx int64 // beacons fired so far

	rep Report
}

// Run executes the configuration on a fresh simulator — the one-call form
// used by tests. Experiments embed the model in their own simulator via
// New.
func Run(seed int64, cfg Config) Report {
	s := sim.New(seed)
	m := New(s, cfg)
	m.Start()
	s.RunUntil(cfg.Horizon)
	return m.Finish()
}

// New builds the population and allocates every column up front: after
// Start, the steady state performs no allocations.
func New(s *sim.Simulator, cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.cap()
	m := &Model{
		cfg:        cfg,
		s:          s,
		led:        power.NewLedger(cfg.Profile, n),
		apOf:       make([]int32, n),
		phaseOf:    make([]int32, n),
		pendFrames: make([]int32, n),
		pendBytes:  make([]float64, n),
		accounted:  make([]sim.Time, n),
		attachedAt: make([]sim.Time, n),
		livePos:    make([]int32, n),
		groupPos:   make([]int32, n),
		live:       make([]int32, 0, n),
		freeIDs:    make([]int32, 0, n),
		groups:     make([][]int32, cfg.APs*cfg.ListenInterval),
	}
	// Group capacity covers the whole population landing in one group, so
	// churn-driven appends never allocate. Without churn groups hold
	// n/(APs·K) ids and the slack is at most one int32 per group; under
	// churn every group reserves the cap, APs·K·cap·4 bytes in all: 1 MB for
	// e19's 8 APs × 8 phases × 4096 ids, 640 MB for 20 APs × 8 phases at 10⁶.
	per := n/(cfg.APs*cfg.ListenInterval) + 1
	if cfg.ArrivalRate > 0 {
		per = n // churn can skew groups; reserve the worst case
	}
	for i := range m.groups {
		m.groups[i] = make([]int32, 0, per)
	}

	// Seed the free list so the initial population comes out of attach in
	// group order: group g's members, in attach order, get the consecutive
	// ids base[g], base[g]+1, …, where base is the prefix sum of the group
	// sizes the attach lattice produces. Ids [Stations, n) follow for churn
	// arrivals. Ids are private to the model, so the layout is invisible in
	// every result; what it buys is that a beacon's walk over a group is a
	// sequential scan of every column.
	next := make([]int32, len(m.groups)) // group sizes, then next id per group
	for seq := 0; seq < cfg.Stations; seq++ {
		next[m.groupAt(seq)]++
	}
	var base int32
	for g, size := range next {
		next[g] = base
		base += size
	}
	m.freeIDs = m.freeIDs[:n] // popped from the end
	for seq := 0; seq < cfg.Stations; seq++ {
		g := m.groupAt(seq)
		m.freeIDs[n-1-seq] = next[g]
		next[g]++
	}
	for id := cfg.Stations; id < n; id++ {
		m.freeIDs[n-1-id] = int32(id)
	}
	for id := range m.livePos {
		m.livePos[id] = -1
	}
	for i := 0; i < cfg.Stations; i++ {
		m.attach()
	}
	return m
}

// lattice returns the (ap, phase) cell of the seq-th attached station:
// round-robin over APs, then over listen phases.
func (m *Model) lattice(seq int) (ap, phase int32) {
	return int32(seq % m.cfg.APs), int32(seq / m.cfg.APs % m.cfg.ListenInterval)
}

// groupAt returns the group index of the seq-th attached station.
func (m *Model) groupAt(seq int) int {
	ap, phase := m.lattice(seq)
	return int(ap)*m.cfg.ListenInterval + int(phase)
}

// attach brings one station online: recycle an id, reset its rows, assign
// it a (ap, phase) cell from the round-robin lattice, and append it to its
// group in attach order.
func (m *Model) attach() {
	id := m.freeIDs[len(m.freeIDs)-1]
	m.freeIDs = m.freeIDs[:len(m.freeIDs)-1]
	k := m.cfg.ListenInterval
	ap, phase := m.lattice(m.attachSeq)
	m.attachSeq++

	m.led.Reset(id)
	m.apOf[id], m.phaseOf[id] = ap, phase
	m.pendFrames[id], m.pendBytes[id] = 0, 0
	now := m.s.Now()
	m.accounted[id], m.attachedAt[id] = now, now
	m.livePos[id] = int32(len(m.live))
	m.live = append(m.live, id)
	g := int(ap)*k + int(phase)
	m.groupPos[id] = int32(len(m.groups[g]))
	m.groups[g] = append(m.groups[g], id)
}

// detach finalizes a station at the current time and recycles its id.
// Pending frames are dropped (buffered at the AP, never retrieved). The
// group removal is order-preserving — attach order of the survivors is the
// service order invariant — so it shifts the tail down one slot.
func (m *Model) detach(id int32) {
	now := m.s.Now()
	if d := now - m.accounted[id]; d > 0 {
		m.led.Dwell(id, radio.Sleep, d)
	}
	m.rep.EnergyJ += m.led.EnergyJ(id)
	m.rep.StationSec += (now - m.attachedAt[id]).Seconds()

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

// frameAir returns the on-air time of frames data frames totalling bytes of
// payload at the profile's PHY rate.
func (m *Model) frameAir(frames int32, bytes float64) sim.Time {
	total := float64(float64(frames)*float64(m.cfg.OverheadBytes)) + bytes
	return sim.FromSeconds(total * 8 / m.cfg.Profile.BitRate)
}

// Start arms the aggregated processes: the beacon, the downlink stream and
// (under churn) the station arrival and death streams. The pending-event
// count stays at 3–4 for any population size.
func (m *Model) Start() {
	cfg := m.cfg
	m.s.Reserve(4)

	var onBeacon func()
	onBeacon = func() {
		m.beacon()
		if m.s.Now()+cfg.BeaconInterval <= cfg.Horizon {
			m.s.Schedule(cfg.BeaconInterval, onBeacon)
		}
	}
	m.s.Schedule(cfg.BeaconInterval, onBeacon)

	if cfg.RatePerStation > 0 {
		// The downlink stream runs at the cap's aggregate rate and thins:
		// the drawn slot is accepted only if it indexes a live station, so
		// the accepted process is exactly Poisson(n·λ) with a uniform
		// station mark, at any live count n.
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

		// Deaths: each live station dies at rate 1/τ, so the population's
		// death process runs at n/τ — thinned against cap/τ like the
		// downlink stream.
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

// expDelay converts a unit-mean exponential draw into a sim.Time gap for a
// process of the given rate, at least 1 time unit so the process always
// advances the clock.
func expDelay(unit, rate float64) sim.Time {
	d := sim.FromSeconds(unit / rate)
	if d < 1 {
		d = 1
	}
	return d
}

// beacon serves one TBTT: stations of the due listen phase, AP by AP in
// attach order. Stations with no buffered frames hear the beacon and sleep
// again; stations with frames wait out the polls ahead of them, then
// PS-Poll each frame. All dwell is charged to the ledger here, including
// the sleep stretch since the station's previous accounting watermark.
func (m *Model) beacon() {
	m.beaconIdx++
	cfg := m.cfg
	k := cfg.ListenInterval
	phase := int(m.beaconIdx % int64(k))
	t := m.s.Now()
	for ap := 0; ap < cfg.APs; ap++ {
		var cum sim.Time // polls served so far in this AP's beacon
		for _, id := range m.groups[ap*k+phase] {
			if d := t - cfg.WakeLead - m.accounted[id]; d > 0 {
				m.led.Dwell(id, radio.Sleep, d)
			}
			m.led.Transition(id, radio.Sleep, radio.Idle)
			m.led.Dwell(id, radio.Idle, cfg.WakeLead)
			m.led.Dwell(id, radio.RX, cfg.BeaconAir)
			end := t + cfg.BeaconAir
			if f := m.pendFrames[id]; f > 0 {
				m.led.Dwell(id, radio.Idle, cum) // wait for earlier polls
				tx := sim.Time(f) * cfg.PollAir
				rx := m.frameAir(f, m.pendBytes[id])
				m.led.Dwell(id, radio.TX, tx)
				m.led.Dwell(id, radio.RX, rx)
				end += cum + tx + rx
				cum += tx + rx
				m.rep.DeliveredBytes += m.pendBytes[id]
				m.rep.DeliveredFrames += int64(f)
				m.pendFrames[id], m.pendBytes[id] = 0, 0
			}
			m.led.Transition(id, radio.Idle, radio.Sleep)
			m.accounted[id] = end
			m.rep.AttendedBeacons++
		}
	}
}

// Finish settles every live station's account at the current time and
// returns the report. The simulator must have been run to the horizon.
func (m *Model) Finish() Report {
	now := m.s.Now()
	for _, id := range m.live {
		if d := now - m.accounted[id]; d > 0 {
			m.led.Dwell(id, radio.Sleep, d)
			m.accounted[id] = now
		}
		m.rep.EnergyJ += m.led.EnergyJ(id)
		m.rep.StationSec += (now - m.attachedAt[id]).Seconds()
	}
	m.rep.Live = len(m.live)
	if m.rep.StationSec > 0 {
		m.rep.AvgPowerW = m.rep.EnergyJ / m.rep.StationSec
	}
	m.rep.DeliveredGoodputBps = m.rep.DeliveredBytes * 8 / m.cfg.Horizon.Seconds()
	return m.rep
}
