// Package metro simulates metropolitan-scale populations of 802.11
// power-save stations — 10⁵–10⁶ clients across many APs in one process —
// at event and memory costs per station low enough to run on one core.
//
// Three structural decisions buy the scale:
//
//   - Aggregation: instead of per-station timers, the model runs one global
//     beacon event, one aggregated Poisson downlink stream (rate n·λ,
//     thinned uniformly over live stations) and one aggregated death
//     process. The event queue holds a handful of events regardless of
//     population size, so the kernel's heap stays within a cache line or
//     two. The downlink stream draws every frame up to the next queued
//     event in one firing, so a beacon interval costs about one frame
//     event, not one per frame.
//
//   - Struct-of-arrays state: every per-station quantity lives in a column
//     indexed by station id (AP, listen phase, attach time, and one packed
//     row of buffered downlink and delivery sums), not in a struct per
//     station. New hands the initial population ids in group order, so
//     each (AP, listen phase) group owns one consecutive id range in
//     attach order; churn recycles ids with O(1) row resets.
//
//   - Closed-form attendance: a station that wakes, hears a TIM without its
//     bit and dozes again costs the same fixed amount at every such beacon,
//     so a beacon does work only for stations with buffered frames. Every
//     frameless attendance is charged in closed form when the station is
//     settled (at departure or at Finish): the count of attended beacons
//     follows from the beacon index at attach and the station's phase, and
//     its sleep is whatever the rest of the association leaves. The model
//     keeps the TIM itself, one traffic bit per station id, set while the
//     station's row holds buffered frames. Without churn a group's id range
//     never changes, so a beacon reads the range's bitmap words and visits
//     only the set bits, about one station in seven in e20, instead of
//     every member; under churn a group's ids scatter, and the beacon walks
//     the group's member list.
//
// The PSM semantics follow the paper's legacy-PSM model: a station sleeps
// between beacons, wakes every ListenInterval-th beacon a WakeLead early,
// receives the beacon, and if the TIM announces buffered frames it stays
// awake, waits for the stations polled before it (attach order within its
// AP), then PS-Polls each frame and receives it. Energy is charged against
// the radio profile's calibration.
//
// Every aggregate the simulation produces has a closed-form expectation in
// the style of Agrawal et al.'s analytical PSM energy models; see
// analytic.go. Experiments tagged [analytic] assert sim-vs-model agreement.
//
// Accuracy and determinism: the model's own transcendentals — the
// per-frame bounded-Pareto draw, the Pareto mean and the closed form's
// exponentials — come from package xmath, not from math.Pow and math.Exp,
// whose assembly kernels differ by CPU. A frame size is the inverse CDF
// l·(1 − u·(1 − (l/h)^α))^(−1/α) rounded twice (the power, then the
// product with l): within about 1.3 ulp of the exact value at the
// sampler's own base, and the same bits on every CPU and GOARCH.
// TestParetoSamplerAccuracy bounds it at 8 ulp against math/big, and
// TestParetoSamplerBitHash pins its bits.
package metro

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/xmath"
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
	pa, pb := xmath.NewPower(a), xmath.NewPower(1-a)
	return pa.Of(l) / (1 - pa.Of(l/h)) * a / (a - 1) * (pb.Of(l) - pb.Of(h))
}

// paretoSampler is a Pareto's inverse CDF, l·(1 − u·(1 − (l/h)^α))^(−1/α),
// with its draw-independent terms precomputed: each sample costs one
// fixed-exponent power of a base in (0, 1] and no division.
type paretoSampler struct {
	min  float64     // l
	span float64     // 1 − (l/h)^α
	pow  xmath.Power // x ↦ x^(−1/α)
}

func (p Pareto) sampler() paretoSampler {
	a, l, h := p.Alpha, p.MinBytes, p.MaxBytes
	return paretoSampler{min: l, span: 1 - xmath.NewPower(a).Of(l/h), pow: xmath.NewPower(-1 / a)}
}

func (s paretoSampler) sample(u float64) float64 {
	return float64(s.min * s.pow.Of(1-float64(u*s.span)))
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

// maxListenInterval is the largest value 802.11's 2-octet Listen Interval
// field can carry.
const maxListenInterval = 65535

func (c Config) cap() int {
	if c.MaxStations > 0 {
		return c.MaxStations
	}
	return c.Stations
}

// Validate rejects configurations the model (and its closed form) cannot
// represent. Every float field must be finite (neither NaN nor ±Inf) and
// every duration and size non-negative, so that no dwell, delay or sample
// can come out negative or undefined.
func (c Config) Validate() error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch {
	case c.APs <= 0:
		return fmt.Errorf("metro: APs must be positive")
	case c.Stations < 0 || c.cap() < c.Stations || c.cap() > math.MaxInt32:
		return fmt.Errorf("metro: Stations %d outside [0, MaxStations %d ≤ 2³¹−1]", c.Stations, c.cap())
	case c.cap() == 0 && (c.RatePerStation > 0 || c.ArrivalRate > 0):
		return fmt.Errorf("metro: traffic or churn needs a non-empty id space (Stations or MaxStations)")
	case c.BeaconInterval <= 0 || c.ListenInterval <= 0:
		return fmt.Errorf("metro: beacon/listen intervals must be positive")
	case c.ListenInterval > maxListenInterval:
		return fmt.Errorf("metro: ListenInterval %d above %d, the 802.11 Listen Interval field's limit", c.ListenInterval, maxListenInterval)
	case c.APs > math.MaxInt32/c.ListenInterval:
		return fmt.Errorf("metro: APs·ListenInterval = %d·%d wake groups overflow int32", c.APs, c.ListenInterval)
	case c.Horizon <= 0:
		return fmt.Errorf("metro: Horizon must be positive")
	case c.Horizon/c.BeaconInterval >= math.MaxInt32:
		return fmt.Errorf("metro: %d beacons within Horizon overflow the int32 beacon index", c.Horizon/c.BeaconInterval)
	case c.WakeLead < 0 || c.BeaconAir < 0 || c.PollAir < 0 || c.OverheadBytes < 0:
		return fmt.Errorf("metro: WakeLead, BeaconAir, PollAir and OverheadBytes must be non-negative")
	case !finite(c.RatePerStation) || c.RatePerStation < 0:
		return fmt.Errorf("metro: traffic rate %g must be finite and non-negative", c.RatePerStation)
	case !finite(c.Frame.Alpha) || !finite(c.Frame.MaxBytes) ||
		!(c.Frame.Alpha > 0) || c.Frame.Alpha == 1 || !(c.Frame.MinBytes > 0) || !(c.Frame.MaxBytes > c.Frame.MinBytes):
		return fmt.Errorf("metro: bounded Pareto needs finite 0<alpha≠1 and 0<min<max")
	case !finite(c.ArrivalRate) || c.ArrivalRate < 0:
		return fmt.Errorf("metro: arrival rate %g must be finite and non-negative", c.ArrivalRate)
	case c.ArrivalRate > 0 && c.MeanLifetime <= 0:
		return fmt.Errorf("metro: churn needs a positive MeanLifetime")
	case c.Profile == nil:
		return fmt.Errorf("metro: missing radio profile")
	}
	if err := c.Profile.Validate(); err != nil {
		return fmt.Errorf("metro: %w", err)
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

	// Per-station columns, indexed by station id ∈ [0, cap).
	sta        []station
	apOf       []int32
	phaseOf    []int32
	joinIdx    []int32 // beacons fired before the station attached
	attachedAt []sim.Time
	spilled    []sim.Time // Σ of spill over the station's frame attendances; almost always 0
	livePos    []int32    // index into live, -1 when dead

	// tim is the traffic bitmap, one bit per station id: set exactly when
	// the station's row holds buffered frames (while it is live; a departed
	// station's bit is cleared when its id is recycled).
	tim []uint64

	live    []int32 // live ids; swap-remove order for O(1) uniform picks
	freeIDs []int32 // recycled ids, LIFO

	// groups[ap·K+phase] lists that group's live station ids in attach
	// order — the deterministic service order within an attended beacon.
	// groupPos[id] is the station's index in its group.
	groups   [][]int32
	groupPos []int32

	// arrivals logs downlink frames in arrival order until the next flush
	// adds them to their stations' rows. Its capacity is fixed: a full log
	// flushes before it would grow.
	arrivals []arrival

	// transJ[n] is the transition energy of n attendances: n wake-ups and
	// n dozes, summed in the order they happen so that every prefix is
	// the float sum a per-attendance account would hold.
	transJ       []float64
	wakeJ, dozeJ float64

	// lap is how far an attendance's awake interval, before any poll
	// service, reaches past the station's next wake: WakeLead + BeaconAir −
	// K·BeaconInterval. It is negative in any sane configuration.
	lap sim.Time

	t0        sim.Time // Start time: beacon b fires at t0 + b·BeaconInterval
	attachSeq int      // drives the ap/phase assignment lattice
	beaconIdx int32    // beacons fired so far

	rep Report
}

// station is one station's row: its buffered downlink and the sums over
// its frame attendances, packed so a beacon's check and a delivery touch
// one row.
type station struct {
	pendFrames int32
	lastFrame  int32 // beacon index of the latest frame attendance, 0 if none
	pendBytes  float64
	wait       sim.Time // Σ idle time waiting for earlier polls
	tx         sim.Time // Σ PS-Poll airtime
	rx         sim.Time // Σ data airtime
	lastSvc    sim.Time // wait + tx + rx of the latest frame attendance
}

// arrival is one logged downlink frame.
type arrival struct {
	id    int32
	bytes float64
}

// arrivalLogLen is the arrival log's capacity: 16 KB of entries, about half
// of e20's arrivals per beacon interval.
const arrivalLogLen = 1024

// New builds the population and allocates every column up front: after
// Start, the steady state performs no allocations.
func New(s *sim.Simulator, cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.cap()
	k := cfg.ListenInterval
	m := &Model{
		cfg:        cfg,
		s:          s,
		sta:        make([]station, n),
		apOf:       make([]int32, n),
		phaseOf:    make([]int32, n),
		joinIdx:    make([]int32, n),
		attachedAt: make([]sim.Time, n),
		spilled:    make([]sim.Time, n),
		livePos:    make([]int32, n),
		groupPos:   make([]int32, n),
		tim:        make([]uint64, (n+63)/64),
		live:       make([]int32, 0, n),
		freeIDs:    make([]int32, 0, n),
		groups:     make([][]int32, cfg.APs*k),
		arrivals:   make([]arrival, 0, arrivalLogLen),
		wakeJ:      cfg.Profile.TransitionCost(radio.Sleep, radio.Idle).Energy,
		dozeJ:      cfg.Profile.TransitionCost(radio.Idle, radio.Sleep).Energy,
		lap:        cfg.WakeLead + cfg.BeaconAir - sim.Time(k)*cfg.BeaconInterval,
	}
	// A station attends at most one beacon in K over the horizon. The table
	// reserves that many entries (up to 512 KB) and fills them on demand.
	most := int(cfg.Horizon/cfg.BeaconInterval)/k + 1
	m.transJ = make([]float64, 1, min(most, 1<<16)+1)

	// Group capacity covers the whole population landing in one group, so
	// churn-driven appends never allocate. Without churn groups hold
	// n/(APs·K) ids and the slack is at most one int32 per group; under
	// churn every group reserves the cap, APs·K·cap·4 bytes in all: 1 MB for
	// e19's 8 APs × 8 phases × 4096 ids, 640 MB for 20 APs × 8 phases at 10⁶.
	per := n/(cfg.APs*k) + 1
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
	// every result; what it buys is that, until churn recycles an id, a
	// group's traffic bits are one run of bitmap words and its rows one
	// ascending run of every column, both read in attach order.
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
// group in attach order. The arrival log is flushed first, so frames
// logged for the id's previous holder land in the row before it is reset:
// a departed station's buffered frames are dropped, never delivered.
func (m *Model) attach() {
	m.flush()
	id := m.freeIDs[len(m.freeIDs)-1]
	m.freeIDs = m.freeIDs[:len(m.freeIDs)-1]
	k := m.cfg.ListenInterval
	ap, phase := m.lattice(m.attachSeq)
	m.attachSeq++

	m.sta[id] = station{}
	m.tim[id>>6] &^= 1 << (id & 63)
	m.spilled[id] = 0
	m.apOf[id], m.phaseOf[id] = ap, phase
	m.joinIdx[id] = m.beaconIdx
	m.attachedAt[id] = m.s.Now()
	m.livePos[id] = int32(len(m.live))
	m.live = append(m.live, id)
	g := int(ap)*k + int(phase)
	m.groupPos[id] = int32(len(m.groups[g]))
	m.groups[g] = append(m.groups[g], id)
}

// detach settles a station at the current time and recycles its id. The
// group removal is order-preserving — attach order of the survivors is the
// service order invariant — so it shifts the tail down one slot.
func (m *Model) detach(id int32) {
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

// flush adds the logged downlink arrivals to their stations' rows, in
// arrival order, sets their traffic bits, and empties the log. Beacons
// (which read the rows) and attach (which resets one) flush first; a
// departed station's row is read by neither, so detach need not.
func (m *Model) flush() {
	for _, a := range m.arrivals {
		st := &m.sta[a.id]
		st.pendFrames++
		st.pendBytes += a.bytes
		m.tim[a.id>>6] |= 1 << (a.id & 63)
	}
	m.arrivals = m.arrivals[:0]
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
//
// The downlink stream fires one event per quiet stretch, not one per
// frame. A frame only logs (id, bytes) and reads no clock, so one event
// draws every arrival strictly before the simulator's next queued instant
// (Simulator.Lookahead), and at most up to Horizon; the first arrival past
// either bound gets the next event. The draws, the log and every sum are
// those of one event per frame, bit for bit: an event already queued at
// the bound was scheduled earlier, so it fires before a frame at the same
// instant either way, and the bound never crosses a RunUntil split. Joins
// and deaths stay one event each, because attach and detach read the
// clock.
func (m *Model) Start() {
	cfg := m.cfg
	ids := cfg.cap()
	m.t0 = m.s.Now()

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
		maxRate := float64(ids) * cfg.RatePerStation
		frame := cfg.Frame.sampler()
		r := m.s.Rand()
		var onFrame func()
		onFrame = func() {
			first, _, _ := m.s.Lookahead()
			at := m.s.Now()
			for {
				if j := r.Intn(ids); j < len(m.live) {
					if len(m.arrivals) == cap(m.arrivals) {
						m.flush()
					}
					m.arrivals = append(m.arrivals, arrival{m.live[j], frame.sample(r.Float64())})
				}
				at += expDelay(r.ExpFloat64(), maxRate)
				if at >= first || at > cfg.Horizon {
					break
				}
			}
			m.s.At(at, onFrame)
		}
		m.s.Schedule(expDelay(r.ExpFloat64(), maxRate), onFrame)
	}

	if cfg.ArrivalRate > 0 {
		r := m.s.Rand()
		var onJoin func()
		onJoin = func() {
			if len(m.live) < ids {
				m.attach()
				m.rep.Arrivals++
			}
			m.s.Schedule(expDelay(r.ExpFloat64(), cfg.ArrivalRate), onJoin)
		}
		m.s.Schedule(expDelay(r.ExpFloat64(), cfg.ArrivalRate), onJoin)

		// Deaths: each live station dies at rate 1/τ, so the population's
		// death process runs at n/τ — thinned against cap/τ like the
		// downlink stream.
		maxDeath := float64(ids) / cfg.MeanLifetime.Seconds()
		var onDeath func()
		onDeath = func() {
			if j := r.Intn(ids); j < len(m.live) {
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
// attach order. Every one of them wakes, hears the beacon and dozes again;
// that part is the same at every attendance and is charged in closed form
// when the station is settled. The beacon itself does work only for the
// stations whose TIM bit is set: each waits out the polls ahead of it,
// PS-Polls its frames and receives them, and its row adds the wait, poll
// and data airtime.
//
// Without churn a group's members are the consecutive ids [grp[0],
// grp[0]+len(grp)) in attach order (New's id layout; no id is ever
// recycled), so the beacon reads the group's traffic bits a word at a time
// and visits only the set ones, in ascending id order, which is attach
// order. Under churn a group's ids are scattered, and the beacon walks its
// members instead.
func (m *Model) beacon() {
	m.flush()
	m.beaconIdx++
	k := m.cfg.ListenInterval
	phase := int(m.beaconIdx % int32(k))
	for ap := 0; ap < m.cfg.APs; ap++ {
		grp := m.groups[ap*k+phase]
		var cum sim.Time // polls served so far in this AP's beacon
		if m.cfg.ArrivalRate > 0 {
			for _, id := range grp {
				if m.sta[id].pendFrames > 0 {
					m.tim[id>>6] &^= 1 << (id & 63)
					cum = m.serve(id, cum)
				}
			}
			continue
		}
		if len(grp) == 0 {
			continue
		}
		lo, last := grp[0], grp[0]+int32(len(grp)-1) // ids [lo, last]
		for w := lo >> 6; w <= last>>6; w++ {
			word := m.tim[w]
			if w == lo>>6 {
				word &= ^uint64(0) << (lo & 63)
			}
			if w == last>>6 {
				word &= ^uint64(0) >> (63 - last&63)
			}
			m.tim[w] &^= word
			for ; word != 0; word &= word - 1 {
				cum = m.serve(w<<6+int32(bits.TrailingZeros64(word)), cum)
			}
		}
	}
}

// serve delivers station id's buffered frames at a beacon after cum of
// earlier poll service, and returns the service so far including its own.
func (m *Model) serve(id int32, cum sim.Time) sim.Time {
	st := &m.sta[id]
	f := st.pendFrames
	tx := sim.Time(f) * m.cfg.PollAir
	rx := m.frameAir(f, st.pendBytes)
	svc := cum + tx + rx
	st.wait += cum
	st.tx += tx
	st.rx += rx
	if s := m.spill(svc); s > 0 {
		m.spilled[id] += s
	}
	st.lastFrame, st.lastSvc = m.beaconIdx, svc
	m.rep.DeliveredBytes += st.pendBytes
	m.rep.DeliveredFrames += int64(f)
	st.pendFrames, st.pendBytes = 0, 0
	return svc
}

// overlap returns how far an attendance with svc of poll service keeps the
// station awake past its next wake: the stretch a per-attendance account
// would have clamped out of the following sleep gap.
func (m *Model) overlap(svc sim.Time) sim.Time { return max(0, m.lap+svc) }

// spill is the part of overlap(svc) that the poll service adds to a
// frameless attendance's overlap: zero unless the service runs past the
// station's next wake.
func (m *Model) spill(svc sim.Time) sim.Time { return m.overlap(svc) - m.overlap(0) }

// beaconAt returns the time beacon b fired.
func (m *Model) beaconAt(b int32) sim.Time {
	return m.t0 + sim.Time(b)*m.cfg.BeaconInterval
}

// attended returns the number of beacons in [1, b] that a station of the
// given listen phase attends.
func (m *Model) attended(b, phase int32) int32 {
	if b < phase {
		return 0
	}
	return (b-phase)/int32(m.cfg.ListenInterval) + 1
}

// transitionsJ returns the transition energy of n attendances, extending
// the prefix table when n is past its end.
func (m *Model) transitionsJ(n int32) float64 {
	for int(n) >= len(m.transJ) {
		m.transJ = append(m.transJ, m.transJ[len(m.transJ)-1]+m.wakeJ+m.dozeJ)
	}
	return m.transJ[n]
}

// settle closes station id's account at the current time and adds its
// energy, station-time and attendances to the report.
//
// The station attended n beacons, the beacons b in (joinIdx, beaconIdx]
// with b ≡ phase (mod K). Its idle, RX and TX times are exact sums: each
// attendance listens WakeLead and receives BeaconAir, and the row holds
// the rest. Its sleep fills the remainder of [attachedAt, now], except
// that an account charged one attendance at a time clamps every sleep gap
// at zero; the sleep adds back each stretch a clamp hid:
//
//   - the first wake falls within WakeLead of attach;
//   - an attendance ran past the station's next wake: by overlap(0) after
//     each frameless one, and by spill more after a frame attendance whose
//     poll service ran long;
//   - the last attendance had not ended by now.
func (m *Model) settle(id int32) {
	cfg := m.cfg
	now := m.s.Now()
	st := &m.sta[id]
	from := m.attachedAt[id]
	phase := m.phaseOf[id]
	n := m.attended(m.beaconIdx, phase) - m.attended(m.joinIdx[id], phase)

	idle := sim.Time(n)*cfg.WakeLead + st.wait
	rx := sim.Time(n)*cfg.BeaconAir + st.rx
	sleep := now - from - idle - rx - st.tx
	if n > 0 {
		last := m.beaconIdx - (m.beaconIdx-phase)%int32(cfg.ListenInterval)
		first := last - (n-1)*int32(cfg.ListenInterval)
		sleep += max(0, from-(m.beaconAt(first)-cfg.WakeLead))
		sleep += sim.Time(n-1)*m.overlap(0) + m.spilled[id]
		end := m.beaconAt(last) + cfg.BeaconAir
		if st.lastFrame == last {
			// The last attendance had frames and no next wake: its spill
			// hid no gap, and its service ran to a later end.
			sleep -= m.spill(st.lastSvc)
			end += st.lastSvc
		}
		sleep += max(0, end-now)
	}

	// The per-state sum in radio.State order; Off contributes an exact 0
	// (Profile.Validate pins its draw to zero).
	p := cfg.Profile
	j := m.transitionsJ(n)
	j += float64(sleep.Seconds() * p.Power[radio.Sleep])
	j += float64(idle.Seconds() * p.Power[radio.Idle])
	j += float64(rx.Seconds() * p.Power[radio.RX])
	j += float64(st.tx.Seconds() * p.Power[radio.TX])

	m.rep.EnergyJ += j
	m.rep.StationSec += (now - from).Seconds()
	m.rep.AttendedBeacons += int64(n)
}

// Finish settles every live station's account at the current time, in
// closed form, and returns the report. The simulator must have been run
// to the horizon.
func (m *Model) Finish() Report {
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
