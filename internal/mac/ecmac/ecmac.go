// Package ecmac implements an EC-MAC-style energy-conserving MAC: a base
// station broadcasts a centrally determined TDMA schedule at the start of
// every superframe, a reservation phase of one minislot per station
// follows, and downlink data flows in assigned slots. Because every
// station learns the exact schedule, it knows precisely when to wake and can
// sleep the rest of the superframe — the property the paper highlights:
// "EC-MAC extends this by broadcasting a centrally determined schedule of
// data transmission times to reduce collisions and to provide exact times
// for entry into doze state."
//
// The model carries downlink traffic only: the reservation minislots keep
// their place in the superframe, but no station transmits in them.
//
// A superframe allocates nothing once the network is warm: the schedule
// lives in buffers reused on the Network, every event callback is bound
// once per network or per station, and packets are queued by value.
package ecmac

import (
	"fmt"
	"sort"

	"repro/internal/radio"
	"repro/internal/sim"
)

// Config holds EC-MAC superframe parameters.
type Config struct {
	// SuperframeLen is the TDMA frame period.
	SuperframeLen sim.Time
	// SlotTime is the duration of one data slot.
	SlotTime sim.Time
	// ReqSlotTime is the duration of one reservation minislot.
	ReqSlotTime sim.Time
	// ScheduleBytes is the base size of the schedule beacon; it grows by
	// PerEntryBytes per scheduled station.
	ScheduleBytes int
	// PerEntryBytes is the per-station schedule entry size.
	PerEntryBytes int
	// BitRate is the PHY rate in bits/second.
	BitRate float64
	// WakeLead is how long before a scheduled activity a station begins its
	// sleep→idle transition.
	WakeLead sim.Time
}

// DefaultConfig returns the parameters used in experiment E5: 50 ms
// superframes of 2 ms slots at 11 Mb/s.
func DefaultConfig() Config {
	return Config{
		SuperframeLen: 50 * sim.Millisecond,
		SlotTime:      2 * sim.Millisecond,
		ReqSlotTime:   200 * sim.Microsecond,
		ScheduleBytes: 60,
		PerEntryBytes: 6,
		BitRate:       11e6,
		WakeLead:      3 * sim.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SuperframeLen <= 0 || c.SlotTime <= 0 || c.ReqSlotTime <= 0 {
		return fmt.Errorf("ecmac: durations must be positive")
	}
	if c.SlotTime >= c.SuperframeLen {
		return fmt.Errorf("ecmac: slot longer than superframe")
	}
	if c.BitRate <= 0 {
		return fmt.Errorf("ecmac: invalid bit rate")
	}
	if c.WakeLead <= 0 {
		return fmt.Errorf("ecmac: wake lead must be positive")
	}
	return nil
}

// BytesPerSlot returns the payload capacity of one data slot.
func (c Config) BytesPerSlot() int {
	return int(c.SlotTime.Seconds() * c.BitRate / 8)
}

// packet is one queued downlink payload.
type packet struct {
	remaining int
	enqueued  sim.Time
}

// stationState is the base station's view of one registered client.
type stationState struct {
	n        *Network
	id       int
	dev      *radio.Device
	downlink []packet
	queued   int // bytes left across downlink

	recvBytes int

	// This superframe's schedule for the station: whether it has a data
	// window and, if so, how many slots.
	hasWindow bool
	slots     int

	// Event callbacks bound once in Register.
	afterBeaconFn func()
	windowFn      func()
	windowEndFn   func()
}

// Stats aggregates network-wide EC-MAC counters.
type Stats struct {
	Superframes    int
	PacketsDeliv   int
	BytesDownlink  int
	Collisions     int // always 0: TDMA is collision-free by construction
	MeanDelay      sim.Time
	totalDelay     sim.Time
	delayedPackets int
}

// window is one station's contiguous run of data slots in a superframe.
type window struct {
	st         *stationState
	start, end sim.Time
}

// Network is a complete EC-MAC cell: one base station plus registered
// stations, self-driving once started.
type Network struct {
	sim *sim.Simulator
	cfg Config
	bs  *radio.Device

	stations []*stationState
	byID     map[int]*stationState
	rotation int
	stats    Stats
	started  bool

	// The current superframe's schedule, rebuilt by runSuperframe into
	// reused storage. Every callback of a superframe fires before the next
	// one starts: data windows end by nextWake.
	windows  []window
	nextWake sim.Time

	// Event callbacks bound once in NewNetwork.
	bsTXFn, bsIdleFn func()
	wakeAllFn        func()
	runSuperframeFn  func()
}

// NewNetwork creates an EC-MAC cell. The base-station device models the
// AP-side radio (mains powered; metered anyway for completeness).
func NewNetwork(s *sim.Simulator, cfg Config, bsDev *radio.Device) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if bsDev.State() != radio.Idle {
		panic("ecmac: base station radio must start Idle")
	}
	n := &Network{sim: s, cfg: cfg, bs: bsDev, byID: make(map[int]*stationState)}
	n.bsTXFn = n.bsTX
	n.bsIdleFn = n.bsIdle
	n.wakeAllFn = n.wakeAll
	n.runSuperframeFn = n.runSuperframe
	return n
}

// Register adds a station; its radio must start Idle (it will be put to
// sleep until the first superframe). Must be called before Start.
func (n *Network) Register(id int, dev *radio.Device) {
	if n.started {
		panic("ecmac: register before Start")
	}
	if _, dup := n.byID[id]; dup {
		panic(fmt.Sprintf("ecmac: duplicate station %d", id))
	}
	if dev.State() != radio.Idle {
		panic("ecmac: station radio must start Idle")
	}
	st := &stationState{n: n, id: id, dev: dev}
	st.afterBeaconFn = st.afterBeacon
	st.windowFn = st.openWindow
	st.windowEndFn = st.closeWindow
	n.stations = append(n.stations, st)
	n.byID[id] = st
	sort.Slice(n.stations, func(i, j int) bool { return n.stations[i].id < n.stations[j].id })
}

// Start begins superframe processing. Stations doze until the first frame.
func (n *Network) Start() {
	if n.started {
		return
	}
	n.started = true
	for _, st := range n.stations {
		st.dev.SetState(radio.Sleep, nil)
	}
	first := n.cfg.SuperframeLen
	n.sim.At(first-n.cfg.WakeLead, n.wakeAllFn)
	n.sim.At(first, n.runSuperframeFn)
}

// Deliver queues downlink payload for a station.
func (n *Network) Deliver(to int, bytes int) {
	st, ok := n.byID[to]
	if !ok {
		panic(fmt.Sprintf("ecmac: unknown station %d", to))
	}
	st.downlink = append(st.downlink, packet{remaining: bytes, enqueued: n.sim.Now()})
	st.queued += bytes
}

// Stats returns aggregate counters with the mean delay computed.
func (n *Network) Stats() Stats {
	s := n.stats
	if s.delayedPackets > 0 {
		s.MeanDelay = s.totalDelay / sim.Time(s.delayedPackets)
	}
	return s
}

// StationEnergy returns the average power of one station's radio.
func (n *Network) StationEnergy(id int) float64 {
	return n.byID[id].dev.Meter().AveragePower()
}

// wakeAll begins every station's sleep→idle transition ahead of the beacon.
func (n *Network) wakeAll() {
	for _, st := range n.stations {
		if st.dev.State() == radio.Sleep && !st.dev.Transitioning() {
			st.dev.SetState(radio.Idle, nil)
		}
	}
}

func (n *Network) bsTX()   { n.bs.SetState(radio.TX, nil) }
func (n *Network) bsIdle() { n.bs.SetState(radio.Idle, nil) }

// dozeStation puts a station to sleep if it is idle and the sleep transition
// completes before nextWake (otherwise sleeping would race the wakeup).
func (n *Network) dozeStation(st *stationState, nextWake sim.Time) {
	trans := st.dev.Profile().TransitionCost(radio.Idle, radio.Sleep).Latency
	if n.sim.Now()+trans >= nextWake {
		return
	}
	if st.dev.State() == radio.Idle && !st.dev.Transitioning() {
		st.dev.SetState(radio.Sleep, nil)
	}
}

// airTime converts bytes to on-air time at the configured rate.
func (n *Network) airTime(bytes int) sim.Time {
	return sim.FromSeconds(float64(bytes*8) / n.cfg.BitRate)
}

// runSuperframe executes one complete TDMA frame: schedule beacon,
// reservation phase, contiguous per-station data allocations, then doze.
//
// Event-ordering contract: base-station state changes are scheduled in
// chronological order within this body, so FIFO tie-breaking at shared
// boundaries yields end-of-phase → start-of-phase sequencing. Station-side
// activity is chained through occupancy done-callbacks, so a station never
// overlaps its own radio operations.
func (n *Network) runSuperframe() {
	cfg := n.cfg
	frameStart := n.sim.Now()
	n.nextWake = frameStart + cfg.SuperframeLen - cfg.WakeLead
	n.stats.Superframes++

	// --- Build the schedule ---
	beaconBytes := cfg.ScheduleBytes + cfg.PerEntryBytes*len(n.stations)
	beaconDur := n.airTime(beaconBytes)
	reqPhase := cfg.ReqSlotTime * sim.Time(len(n.stations))
	dataStart := beaconDur + reqPhase
	avail := int((cfg.SuperframeLen - dataStart - cfg.WakeLead) / cfg.SlotTime)
	if avail < 0 {
		avail = 0
	}
	bps := cfg.BytesPerSlot()

	// Serve stations in an order rotated each frame, for long-run fairness.
	for _, st := range n.stations {
		st.hasWindow = false
	}
	n.windows = n.windows[:0]
	remaining := avail
	for i := range n.stations {
		if remaining == 0 {
			break
		}
		st := n.stations[(i+n.rotation)%len(n.stations)]
		down := min((st.queued+bps-1)/bps, remaining)
		if down == 0 {
			continue
		}
		start := frameStart + dataStart + cfg.SlotTime*sim.Time(avail-remaining)
		remaining -= down
		st.hasWindow, st.slots = true, down
		n.windows = append(n.windows, window{st: st, start: start, end: start + cfg.SlotTime*sim.Time(down)})
	}
	n.rotation++

	// --- Base-station radio timeline (chronological scheduling order) ---
	n.bs.SetState(radio.TX, nil) // beacon
	n.sim.At(frameStart+beaconDur, n.bsIdleFn)
	for _, w := range n.windows {
		n.sim.At(w.start, n.bsTXFn)
		n.sim.At(w.end, n.bsIdleFn)
	}

	// --- Station radio timelines ---
	for _, st := range n.stations {
		if st.dev.State() != radio.Idle || st.dev.Transitioning() {
			continue // missed wakeup; sits out this frame, retried next wakeAll
		}
		st.dev.OccupyFor(radio.RX, beaconDur, radio.Idle, st.afterBeaconFn)
	}
	for _, w := range n.windows {
		n.sim.At(w.start, w.st.windowFn)
	}

	// --- Next frame ---
	n.sim.At(n.nextWake, n.wakeAllFn)
	n.sim.At(frameStart+cfg.SuperframeLen, n.runSuperframeFn)
}

// afterBeacon leaves a station idle until its data window, or dozes it
// at once if it has none.
func (st *stationState) afterBeacon() {
	if !st.hasWindow {
		st.n.dozeStation(st, st.n.nextWake)
	}
}

// openWindow starts receiving the station's downlink slots.
func (st *stationState) openWindow() {
	st.dev.OccupyFor(radio.RX, st.n.cfg.SlotTime*sim.Time(st.slots), radio.Idle, st.windowEndFn)
}

// closeWindow drains what the window carried and dozes the station.
func (st *stationState) closeWindow() {
	st.n.drain(st, st.slots*st.n.cfg.BytesPerSlot())
	st.n.dozeStation(st, st.n.nextWake)
}

// drain moves up to budget bytes out of a station's downlink queue,
// recording delivery delays for packets that complete.
func (n *Network) drain(st *stationState, budget int) {
	now := n.sim.Now()
	for budget > 0 && len(st.downlink) > 0 {
		p := &st.downlink[0]
		take := min(p.remaining, budget)
		p.remaining -= take
		budget -= take
		st.queued -= take
		st.recvBytes += take
		n.stats.BytesDownlink += take
		if p.remaining == 0 {
			n.stats.PacketsDeliv++
			n.stats.totalDelay += now - p.enqueued
			n.stats.delayedPackets++
			// Shift in place so the queue keeps its capacity for Deliver.
			st.downlink = st.downlink[:copy(st.downlink, st.downlink[1:])]
		}
	}
}
