package core

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Config parameterizes the Hotspot resource manager.
type Config struct {
	// Epoch is the scheduling period: one burst per client per epoch, so
	// this is also the inter-burst sleep horizon ("10s of Kbytes at a
	// time" every Epoch).
	Epoch sim.Time
	// StartOffset delays the first slot of each epoch so that even a
	// WLAN-off client has time to wake (Off→Idle is 100 ms).
	StartOffset sim.Time
	// Guard separates consecutive slots on the same interface.
	Guard sim.Time
	// MarginSeconds of extra media buffered beyond one epoch's worth: the
	// slack that rides out slot jitter and interface switches.
	MarginSeconds float64
	// Scheduler orders each epoch's demands (EDF, WFQ, round-robin).
	Scheduler Scheduler
	// Policy selects serving interfaces.
	Policy IfacePolicy
	// ChunkBytes is the packet size used for loss-inflation estimates.
	ChunkBytes int
	// InflationCap bounds retransmission inflation before a slot is
	// declared failed and delivers only what survived.
	InflationCap float64
	// RecoveryFraction: a slot delivering less than this fraction of its
	// demand triggers an immediate recovery burst on the fallback
	// interface (the mechanism behind the paper's seamless BT→WLAN switch).
	RecoveryFraction float64
	// BTLoadFraction caps how much of Bluetooth's goodput the manager will
	// book per epoch before spilling clients to WLAN.
	BTLoadFraction float64
}

// DefaultConfig returns the configuration of the paper's experiment:
// 10-second bursts, EDF scheduling, adaptive interface selection.
func DefaultConfig() Config {
	return Config{
		Epoch:       10 * sim.Second,
		StartOffset: 150 * sim.Millisecond,
		Guard:       50 * sim.Millisecond,
		// The margin must ride out an interface-switch transient: after a
		// fleet-wide move to Bluetooth, the last of three clients is not
		// refilled for ~7.5 s (three serialized ~2.5 s bursts), so clients
		// hold 8 s of standing media beyond the per-epoch refill.
		MarginSeconds:    8,
		Scheduler:        EDF{},
		Policy:           PolicyAdaptive,
		ChunkBytes:       1460,
		InflationCap:     3,
		RecoveryFraction: 0.9,
		BTLoadFraction:   0.85,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Epoch <= 0 || c.StartOffset <= 0 || c.Guard < 0 {
		return fmt.Errorf("core: invalid epoch timing")
	}
	if c.StartOffset >= c.Epoch {
		return fmt.Errorf("core: start offset must be below epoch")
	}
	if c.Scheduler == nil {
		return fmt.Errorf("core: scheduler required")
	}
	// The comparisons are written so that NaN fails them.
	if !(c.InflationCap >= 1) || math.IsInf(c.InflationCap, 1) {
		return fmt.Errorf("core: inflation cap %g outside [1, +Inf)", c.InflationCap)
	}
	if !(c.RecoveryFraction >= 0 && c.RecoveryFraction <= 1) {
		return fmt.Errorf("core: recovery fraction %g outside [0,1]", c.RecoveryFraction)
	}
	if !(c.BTLoadFraction > 0 && c.BTLoadFraction <= 1) {
		return fmt.Errorf("core: BT load fraction %g outside (0,1]", c.BTLoadFraction)
	}
	if !(c.MarginSeconds >= 0) || math.IsInf(c.MarginSeconds, 1) {
		return fmt.Errorf("core: margin %g s outside [0, +Inf)", c.MarginSeconds)
	}
	if c.ChunkBytes <= 0 {
		return fmt.Errorf("core: chunk size %d B not positive", c.ChunkBytes)
	}
	return nil
}

// ResourceManager is the server-side Hotspot scheduler. It owns the epoch
// loop: gather client state, pick interfaces, build the burst schedule,
// and drive client-side execution.
type ResourceManager struct {
	sim *sim.Simulator
	cfg Config

	clients  []*Client
	channels [numIfaces]*channel.GilbertElliott
	monitors channel.Monitors // indexed by Iface

	epoch      int
	history    []Slot
	recoveries int
	urgents    int
	started    bool

	// Per-epoch scratch, reused so the epoch loop allocates nothing in
	// steady state: demands per interface, the two layout passes, the
	// rescue demands and the rescue-plus-bulk layout.
	demands     [numIfaces][]Demand
	prelim      []Slot
	slots       []Slot
	rescues     []Demand
	rescueSlots []Slot
	durFor      func(d Demand, bytes int) sim.Time // rm.demandDur, bound once

	freeRuns []*slotRun // spent slot records
}

// NewResourceManager creates the manager over per-interface channels.
// channels[WLAN] and channels[BT] supply the respective link conditions.
func NewResourceManager(s *sim.Simulator, cfg Config, chans map[Iface]*channel.GilbertElliott) *ResourceManager {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rm := &ResourceManager{sim: s, cfg: cfg}
	rm.durFor = rm.demandDur
	for _, i := range Ifaces() {
		ch, ok := chans[i]
		if !ok || ch == nil {
			panic(fmt.Sprintf("core: missing channel for %v", i))
		}
		rm.channels[i] = ch
	}
	rm.monitors = channel.NewMonitors(s, rm.channels[:]...)
	return rm
}

// Admit attaches a client to the scheduler. Must be called before Start.
func (rm *ResourceManager) Admit(spec ClientSpec) *Client {
	if rm.started {
		panic("core: admit before Start")
	}
	for _, c := range rm.clients {
		if c.spec.ID == spec.ID {
			panic(fmt.Sprintf("core: client %d admitted twice", spec.ID))
		}
	}
	initial := rm.initialIface(spec)
	c := newClient(rm.sim, spec, initial)
	rm.clients = append(rm.clients, c)
	return c
}

// initialIface applies the policy's static preference at admission.
func (rm *ResourceManager) initialIface(spec ClientSpec) Iface {
	switch rm.cfg.Policy {
	case PolicyWLANOnly:
		if !spec.HasWLAN {
			panic(fmt.Sprintf("core: client %d lacks WLAN under wlan-only policy", spec.ID))
		}
		return WLAN
	case PolicyBTOnly:
		if !spec.HasBT {
			panic(fmt.Sprintf("core: client %d lacks BT under bt-only policy", spec.ID))
		}
		return BT
	default:
		if spec.HasBT {
			return BT // the paper: "the scheduler initially has only Bluetooth enabled"
		}
		return WLAN
	}
}

// Clients returns the admitted clients.
func (rm *ResourceManager) Clients() []*Client { return rm.clients }

// Start begins the epoch loop and the QoS watchdog.
func (rm *ResourceManager) Start() {
	if rm.started {
		return
	}
	rm.started = true
	rm.runEpoch()
	sim.NewTicker(rm.sim, rm.cfg.Epoch, rm.runEpoch)
	sim.NewTicker(rm.sim, 500*sim.Millisecond, rm.watchdog)
}

// Urgents counts watchdog-triggered top-up bursts.
func (rm *ResourceManager) Urgents() int { return rm.urgents }

// watchdog guards QoS between epochs: the server knows exactly what it has
// delivered, so whenever a client's buffer will dry before its next planned
// fill — a switch transient, a truncated slot, a failed burst — it inserts
// an immediate top-up burst.
func (rm *ResourceManager) watchdog() {
	now := rm.sim.Now()
	for _, c := range rm.clients {
		tte := c.buffer.TimeToEmpty()
		if tte == sim.MaxTime || tte > 3*sim.Second {
			continue
		}
		if c.nextFill <= now+tte-sim.Second {
			continue // a fill will land in time
		}
		if c.urgentSeen && now-c.lastUrgent < 4*sim.Second {
			continue
		}
		rm.urgentTopUp(c)
	}
}

// urgentTopUp schedules an immediate half-epoch burst for a client at risk.
func (rm *ResourceManager) urgentTopUp(c *Client) {
	iface := c.assigned
	// Only the adaptive policy may divert emergencies to the other
	// interface; pinned policies must live with their choice.
	if rm.cfg.Policy == PolicyAdaptive && rm.monitors[iface].Quality() == channel.QualityUnusable {
		switch {
		case iface == BT && c.Has(WLAN):
			iface = WLAN
		case iface == WLAN && c.Has(BT):
			iface = BT
		}
	}
	bytes := int(c.spec.Stream.BytesPerSecond() * rm.cfg.Epoch.Seconds() / 2)
	start := rm.sim.Now() + c.wakeLatency(iface) + rm.cfg.Guard
	slot := Slot{
		Client: c.spec.ID, Iface: iface,
		Start: start,
		End:   start + rm.estimateDur(iface, bytes),
		Bytes: bytes,
		Kind:  SlotUrgent,
	}
	rm.urgents++
	c.lastUrgent, c.urgentSeen = rm.sim.Now(), true
	rm.history = append(rm.history, slot)
	rm.execute(slot, false)
}

// runEpoch is one scheduling round: interface selection, demand
// computation, ordering, layout, execution.
func (rm *ResourceManager) runEpoch() {
	now := rm.sim.Now()
	epochEnd := now + rm.cfg.Epoch

	rm.selectInterfaces()

	// Demands per interface.
	for i := range rm.demands {
		rm.demands[i] = rm.demands[i][:0]
	}
	for _, c := range rm.clients {
		d := rm.demandFor(c)
		if d.Bytes <= 0 {
			continue
		}
		rm.demands[d.Iface] = append(rm.demands[d.Iface], d)
	}

	// Order and lay out per interface, then execute. Layout is two-pass:
	// the first pass finds each client's fill instant, the second tops the
	// demand up by the media the client will consume between now and that
	// instant — without this, late-slot clients drift dry over epochs.
	start := now + rm.cfg.StartOffset
	for iface := range rm.demands {
		ds := rm.demands[iface]
		if len(ds) == 0 {
			continue
		}
		ordered := rm.cfg.Scheduler.Order(rm.epoch, ds)
		rm.prelim = layoutSlots(rm.prelim[:0], ordered, start, epochEnd, rm.cfg.Guard, SlotBulk, rm.durFor)
		// Layout keeps demand order and emits at most one slot per
		// demand, so the prelim slots pair with ordered by position; a
		// demand with no slot fills at the epoch end.
		j := 0
		for i := range ordered {
			at := epochEnd
			if j < len(rm.prelim) && rm.prelim[j].Client == ordered[i].Client {
				at = rm.prelim[j].End
				j++
			}
			drain := ordered[i].Weight * (at - now).Seconds()
			ordered[i].Bytes += int(drain)
		}
		rm.slots = layoutSlots(rm.slots[:0], ordered, start, epochEnd, rm.cfg.Guard, SlotBulk, rm.durFor)
		for _, slot := range rm.rescuePass(ordered, rm.slots, now, epochEnd) {
			rm.history = append(rm.history, slot)
			rm.execute(slot, true)
		}
	}
	rm.epoch++
}

// rescuePass inserts small deadline-bridging bursts ahead of the bulk
// layout whenever a playing client's buffer would dry before its bulk fill
// completes (typically right after a fleet-wide switch to a slower
// interface). Rescues are ordered by deadline and sized to bridge from the
// deadline past the (shifted) bulk fill.
func (rm *ResourceManager) rescuePass(ordered []Demand, slots []Slot, now, epochEnd sim.Time) []Slot {
	rescues := rm.rescues[:0]
	j := 0 // ordered[j] is the demand behind slots[k] (see runEpoch)
	for _, sl := range slots {
		for ordered[j].Client != sl.Client {
			j++
		}
		d := ordered[j]
		c := rm.clientByID(sl.Client)
		if !c.buffer.Playing() {
			continue
		}
		if d.Deadline >= sl.End+sim.Second {
			continue
		}
		bridge := (sl.End + 2*sim.Second) - d.Deadline
		rescues = append(rescues, Demand{
			Client:   sl.Client,
			Iface:    sl.Iface,
			Bytes:    int(d.Weight * bridge.Seconds()),
			Deadline: d.Deadline,
			Weight:   d.Weight,
		})
	}
	rm.rescues = rescues
	if len(rescues) == 0 {
		return slots
	}
	// Rescues shift the bulk slots back; widen each bridge by the total
	// rescue airtime so the bridges still reach the shifted fills.
	var shift sim.Time
	for _, r := range rescues {
		shift += rm.durFor(r, r.Bytes) + rm.cfg.Guard
	}
	for i := range rescues {
		rescues[i].Bytes += int(rescues[i].Weight * shift.Seconds())
	}
	out := layoutSlots(rm.rescueSlots[:0], EDF{}.Order(rm.epoch, rescues),
		now+rm.cfg.StartOffset, epochEnd, rm.cfg.Guard, SlotRescue, rm.durFor)
	bulkStart := now + rm.cfg.StartOffset
	if n := len(out); n > 0 {
		bulkStart = out[n-1].End + rm.cfg.Guard
	}
	out = layoutSlots(out, ordered, bulkStart, epochEnd, rm.cfg.Guard, SlotBulk, rm.durFor)
	rm.rescueSlots = out
	return out
}

// selectInterfaces applies the configured policy at an epoch boundary.
//
// The adaptive policy follows the paper's narrative in two stages. At
// admission clients ride the already-associated Bluetooth link (WLAN is
// off; waking it costs a re-association). From the first epoch boundary on,
// the server re-selects each client's interface by minimizing the marginal
// energy of delivering that client's epoch demand — burst receive energy
// plus wake/sleep transition overheads — subject to link quality and the
// Bluetooth capacity budget. For the paper's MP3 workload this moves bulk
// delivery onto WLAN bursts (2% duty at 1.4 W beats 23% duty at 0.43 W)
// while Bluetooth stays parked as the fallback, and it moves clients back
// off any interface whose link degrades.
func (rm *ResourceManager) selectInterfaces() {
	if rm.cfg.Policy != PolicyAdaptive {
		return // static policies fixed at admission
	}
	btBudget := profileFor(BT).Goodput / 8 * rm.cfg.Epoch.Seconds() * rm.cfg.BTLoadFraction
	btBooked := 0.0
	for _, c := range rm.clients {
		need := int(c.spec.Stream.BytesPerSecond() * rm.cfg.Epoch.Seconds())
		choice := rm.chooseIface(c, need, btBooked, btBudget)
		if choice == BT {
			btBooked += float64(need)
		}
		c.assign(choice)
	}
}

// chooseIface picks the serving interface for one client's epoch demand.
func (rm *ResourceManager) chooseIface(c *Client, needBytes int, btBooked, btBudget float64) Iface {
	type cand struct {
		iface Iface
		q     channel.Quality
		cost  float64
	}
	var cands [numIfaces]cand
	n := 0
	for _, i := range Ifaces() {
		if !c.Has(i) {
			continue
		}
		q := rm.monitors[i].Quality()
		if q == channel.QualityUnusable {
			continue
		}
		if i == BT && btBooked+float64(needBytes) > btBudget {
			continue
		}
		cands[n] = cand{iface: i, q: q, cost: rm.epochCost(i, needBytes)}
		n++
	}
	if n == 0 {
		return c.assigned // nowhere better to go; ride it out
	}
	// During the admission epoch stay on the already-connected link the
	// paper starts from, as long as it is usable.
	if rm.epoch == 0 {
		for _, cd := range cands[:n] {
			if cd.iface == c.assigned {
				return cd.iface
			}
		}
	}
	best := cands[0]
	for _, cd := range cands[1:n] {
		// A good link always beats a degraded one; energy breaks ties.
		if cd.q < best.q || (cd.q == best.q && cd.cost < best.cost) {
			best = cd
		}
	}
	return best.iface
}

// epochCost estimates the marginal radio energy of serving one epoch's
// demand on an interface: the (inflation-stretched) burst at RX power plus
// the deep→idle→deep transition overheads.
func (rm *ResourceManager) epochCost(iface Iface, bytes int) float64 {
	p := profileFor(iface)
	burst := p.BurstTime(bytes).Seconds() * rm.inflation(iface)
	// Products are rounded explicitly so no arch fuses them into the sums.
	j := float64(burst * p.Power[radio.RX])
	up := p.TransitionCost(p.DeepState, radio.Idle)
	down := p.TransitionCost(radio.Idle, p.DeepState)
	j += up.Energy + down.Energy + float64(up.Latency.Seconds()*p.Power[radio.Idle])
	return j
}

// demandFor computes a client's transfer requirement for this epoch: top the
// buffer up to one epoch of media plus the safety margin.
func (rm *ResourceManager) demandFor(c *Client) Demand {
	rate := c.spec.Stream.BytesPerSecond()
	target := float64(rate * (rm.cfg.Epoch.Seconds() + rm.cfg.MarginSeconds))
	level := c.buffer.Level()
	bytes := int(target - level)
	if bytes < 0 {
		bytes = 0
	}
	// Deadline: when the buffer would run dry (EDF's urgency signal). A
	// client that has not started playing is maximally urgent.
	deadline := rm.sim.Now()
	if c.buffer.Playing() {
		deadline = rm.sim.Now() + c.buffer.TimeToEmpty()
	}
	return Demand{
		Client:   c.spec.ID,
		Iface:    c.assigned,
		Bytes:    bytes,
		Deadline: deadline,
		Weight:   rate,
		EstDur:   rm.estimateDur(c.assigned, bytes),
	}
}

// demandDur is layoutSlots' duration estimate for a demand.
func (rm *ResourceManager) demandDur(d Demand, bytes int) sim.Time {
	return rm.estimateDur(d.Iface, bytes)
}

// estimateDur predicts a burst's duration on an interface from the current
// channel state (scheduling-time estimate).
func (rm *ResourceManager) estimateDur(iface Iface, bytes int) sim.Time {
	p := profileFor(iface)
	inf := rm.inflation(iface)
	return sim.FromSeconds(p.BurstTime(bytes).Seconds() * inf)
}

// inflation returns the retransmission multiplier implied by the channel's
// instantaneous packet error rate, capped at the configured bound.
func (rm *ResourceManager) inflation(iface Iface) float64 {
	per := rm.channels[iface].PacketErrorProb(rm.cfg.ChunkBytes)
	if per >= 1 {
		return rm.cfg.InflationCap
	}
	inf := 1 / (1 - per)
	if inf > rm.cfg.InflationCap {
		inf = rm.cfg.InflationCap
	}
	return inf
}

// execute drives one slot on its client. allowRecovery guards against
// recursive recovery bursts.
func (rm *ResourceManager) execute(slot Slot, allowRecovery bool) {
	c := rm.clientByID(slot.Client)
	if slot.End < c.nextFill {
		c.nextFill = slot.End
	}
	var r *slotRun
	if n := len(rm.freeRuns); n > 0 {
		r = rm.freeRuns[n-1]
		rm.freeRuns = rm.freeRuns[:n-1]
	} else {
		r = &slotRun{rm: rm}
		r.wakeFn, r.startFn, r.endFn = r.wake, r.start, r.end
	}
	r.c, r.slot, r.allowRecovery = c, slot, allowRecovery
	c.executeSlot(r)
}

// slotRun is one slot in flight: the pooled record behind the wake, start
// and end events of Client.executeSlot. The event callbacks are its
// methods, bound once per record.
type slotRun struct {
	rm            *ResourceManager
	c             *Client
	slot          Slot
	allowRecovery bool
	delivered     int // set at the slot start by assess

	wakeFn, startFn, endFn func()
}

// assess returns the slot's actual transfer duration and delivered bytes
// given the channel conditions at its start.
func (r *slotRun) assess() (sim.Time, int) {
	rm, slot := r.rm, r.slot
	p := profileFor(slot.Iface)
	per := rm.channels[slot.Iface].PacketErrorProb(rm.cfg.ChunkBytes)
	nominal := p.BurstTime(slot.Bytes)
	if per < 1-1/rm.cfg.InflationCap {
		// Retransmissions fit under the cap: everything arrives,
		// stretched by the inflation factor.
		return sim.FromSeconds(nominal.Seconds() / (1 - per)), slot.Bytes
	}
	// Channel effectively dead: the slot burns its capped window and
	// delivers only the surviving fraction.
	dur := sim.FromSeconds(nominal.Seconds() * rm.cfg.InflationCap)
	return dur, int(float64(slot.Bytes) * (1 - per) * rm.cfg.InflationCap)
}

// finish releases the record, then runs the server's completion logic for
// a slot that delivered got bytes: clear the client's planned fill and, if
// allowed, recover a badly short slot on the fallback interface.
func (r *slotRun) finish(got int) {
	rm, c, want, allowRecovery := r.rm, r.c, r.slot.Bytes, r.allowRecovery
	r.c = nil
	rm.freeRuns = append(rm.freeRuns, r)
	c.nextFill = sim.MaxTime
	if !allowRecovery {
		return
	}
	if float64(got) >= float64(want)*rm.cfg.RecoveryFraction {
		return
	}
	rm.recover(c, want-got)
}

// recover schedules an immediate fallback burst on the client's other
// interface after a failed slot: this is the seamless mid-epoch switch.
func (rm *ResourceManager) recover(c *Client, missingBytes int) {
	if rm.cfg.Policy != PolicyAdaptive {
		return // pinned policies cannot divert to another interface
	}
	var fallback Iface
	switch {
	case c.assigned == BT && c.Has(WLAN):
		fallback = WLAN
	case c.assigned == WLAN && c.Has(BT):
		fallback = BT
	default:
		return // nowhere to go
	}
	// Only fall back onto a link that looks healthier.
	if rm.monitors[fallback].Quality() == channel.QualityUnusable {
		return
	}
	c.assign(fallback)
	rm.recoveries++
	start := rm.sim.Now() + c.wakeLatency(fallback) + rm.cfg.Guard
	slot := Slot{
		Client: c.spec.ID, Iface: fallback,
		Start: start,
		End:   start + rm.estimateDur(fallback, missingBytes),
		Bytes: missingBytes,
		Kind:  SlotRecovery,
	}
	rm.history = append(rm.history, slot)
	rm.execute(slot, false)
}

func (rm *ResourceManager) clientByID(id int) *Client {
	for _, c := range rm.clients {
		if c.spec.ID == id {
			return c
		}
	}
	panic(fmt.Sprintf("core: unknown client %d", id))
}
