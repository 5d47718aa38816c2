package dcf

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/radio"
	"repro/internal/sim"
)

// This file keeps the per-slot DCF engine as a test-only reference: one
// countdown event per SlotTime, so every backoff slot boundary is an event
// of its own. The live Station covers each quiet stretch of slots with one
// event (see quietSlots); oracle_test.go runs both engines on identical
// simulators and requires the same counters, energies, clock and random
// stream, bit for bit. The code is the per-slot engine verbatim, with its
// types renamed (Station → refStation, Medium → refMedium, …) and the
// accessors no test needs dropped.

// refTransmission is one in-flight frame on the medium. Records are pooled by
// the refMedium; fire is bound once, when the record is first allocated.
type refTransmission struct {
	m        *refMedium
	f        *frame.Frame
	from     *refStation
	collided bool
	fire     func()
}

func (tx *refTransmission) finish() { tx.m.finish(tx) }

// refMedium is the shared broadcast channel all stations attach to. It detects
// collisions (any temporal overlap destroys all frames involved, no capture)
// and applies channel bit errors to otherwise-successful receptions.
type refMedium struct {
	sim    *sim.Simulator
	cfg    Config
	ch     *channel.GilbertElliott // may be nil for an error-free medium
	nodes  map[int]*refStation
	order  []*refStation // attach order: deterministic notification sequence
	active []*refTransmission
	free   []*refTransmission // recycled records, reused by begin
	stats  Stats

	idleSince sim.Time
}

// newRefMedium creates an empty medium. ch may be nil for a perfect channel.
func newRefMedium(s *sim.Simulator, cfg Config, ch *channel.GilbertElliott) *refMedium {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &refMedium{sim: s, cfg: cfg, ch: ch, nodes: make(map[int]*refStation)}
}

// Stats returns a copy of the medium counters.
func (m *refMedium) Stats() Stats { return m.stats }

// Busy reports whether any transmission is in flight.
func (m *refMedium) Busy() bool { return len(m.active) > 0 }

func (m *refMedium) attach(st *refStation) {
	if _, dup := m.nodes[st.id]; dup {
		panic(fmt.Sprintf("dcf: duplicate station id %d", st.id))
	}
	m.nodes[st.id] = st
	m.order = append(m.order, st)
}

// begin puts a frame on the air. Any overlap collides every frame involved.
func (m *refMedium) begin(st *refStation, f *frame.Frame) {
	dur := m.cfg.AirTime(f.Size())
	var tx *refTransmission
	if n := len(m.free); n > 0 {
		tx = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		tx = &refTransmission{m: m}
		tx.fire = tx.finish
	}
	tx.f, tx.from, tx.collided = f, st, false
	if len(m.active) > 0 {
		tx.collided = true
		for _, other := range m.active {
			if !other.collided {
				other.collided = true
				m.stats.Collisions++
			}
		}
		m.stats.Collisions++
	}
	wasIdle := len(m.active) == 0
	m.active = append(m.active, tx)
	m.stats.Transmissions++
	if wasIdle {
		// Attach order, not map order: busy/idle notifications reach
		// stations in a fixed sequence, so shared-RNG draws (e.g. backoff
		// sampling in startContention) consume the stream deterministically.
		for _, n := range m.order {
			if n != st {
				n.mediumBusy()
			}
		}
	}
	m.sim.Schedule(dur, tx.fire)
}

func (m *refMedium) finish(tx *refTransmission) {
	// Remove from active set.
	for i, a := range m.active {
		if a == tx {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	nowIdle := len(m.active) == 0
	if nowIdle {
		m.idleSince = m.sim.Now()
	}

	delivered := false
	if !tx.collided {
		corrupted := false
		if m.ch != nil && m.ch.SamplePacketError(tx.f.Size()) {
			corrupted = true
			m.stats.Corrupted++
		}
		if !corrupted {
			m.deliver(tx)
			delivered = true
		}
	}
	if delivered {
		m.stats.Delivered++
	}
	tx.from.txDone(tx.f, delivered)
	// Recycle only after txDone has returned: until then the record's
	// frame and sender are still in use.
	tx.f, tx.from = nil, nil
	m.free = append(m.free, tx)

	if nowIdle {
		for _, n := range m.order {
			n.mediumIdle()
		}
	}
}

func (m *refMedium) deliver(tx *refTransmission) {
	if tx.f.To == frame.Broadcast {
		for _, n := range m.order {
			if n != tx.from && n.Awake() {
				n.receive(tx.f)
			}
		}
		return
	}
	if dst, ok := m.nodes[tx.f.To]; ok && dst.Awake() {
		dst.receive(tx.f)
	}
}

// refStation is one 802.11 DCF node (an access point is simply the station with
// id frame.AP). It owns a radio device for energy accounting and implements
// CSMA/CA: DIFS sensing, slotted binary-exponential backoff with freezing,
// ACK-based retransmission, and doze control for power saving.
type refStation struct {
	id  int
	med *refMedium
	sim *sim.Simulator
	dev *radio.Device
	cfg Config

	queue     []*frame.Frame
	awake     bool
	inTx      bool
	trackedTx bool // in-flight frame is head-of-queue data awaiting ACK handling
	waitAck   bool
	attempts  int
	cw        int
	slots     int // remaining backoff slots
	haveBO    bool

	// difs ends the DIFS sensing period; slot ends one backoff slot.
	// Leaving the listening state (doze, our own transmission) stops both;
	// the freeze path stops only those due strictly after now, leaving
	// same-instant ones alive to model DCF collisions.
	difs     *sim.Timer
	slot     *sim.Timer
	ackTimer *sim.Timer

	// onWakeFn is st.onWake bound once in newRefStation, so the radio wake
	// path schedules without allocating.
	onWakeFn func()
	// wakeDone holds the done callbacks of wakes whose radio transition is
	// still in flight, oldest first. Transitioning() is already false at
	// the transition's end instant, so a second wake can start before the
	// first one's end event fires.
	wakeDone []func()
	// Free lists of per-event records: a transmit end and a SIFS response
	// can both be pending at once, so neither fits a single field.
	freeTxEnds []*refTxEnd
	freeSends  []*refPendingSend

	lastSeq      map[int]int // per-sender dedup of MAC retransmissions
	pendingSends int         // SendAfter responses not yet on the air

	stats StationStats

	// OnReceive is invoked for every successfully received data/beacon/poll
	// frame (not ACKs, which the MAC consumes internally).
	OnReceive func(f *frame.Frame)
	// OnSent is invoked when a frame leaves the queue: ok=true after a
	// successful (acknowledged or broadcast) transmission, false on drop.
	OnSent func(f *frame.Frame, ok bool)
	// NoAck disables the ACK/retry machinery for this station's frames
	// (used for broadcast-like flows and by EC-MAC-style experiments).
	NoAck bool
}

// newRefStation attaches a new station to the medium. The radio must already be
// awake in the Idle state (use radio.NewDeviceInState): stations model
// already-associated devices, not ones paying a power-up cost mid-protocol.
func newRefStation(id int, m *refMedium, dev *radio.Device) *refStation {
	if dev.State() != radio.Idle {
		panic(fmt.Sprintf("dcf: station %d radio must start in Idle, got %v", id, dev.State()))
	}
	st := &refStation{id: id, med: m, sim: m.sim, dev: dev, cfg: m.cfg, awake: true,
		cw: m.cfg.CWMin, lastSeq: make(map[int]int)}
	st.difs = sim.NewTimer(m.sim, st.countDown)
	st.slot = sim.NewTimer(m.sim, st.onSlot)
	st.ackTimer = sim.NewTimer(m.sim, st.onAckTimeout)
	st.onWakeFn = st.onWake
	m.attach(st)
	return st
}

// Device returns the station's radio.
func (st *refStation) Device() *radio.Device { return st.dev }

// Stats returns a copy of the station counters.
func (st *refStation) Stats() StationStats { return st.stats }

// Awake reports whether the station is listening to the medium.
func (st *refStation) Awake() bool { return st.awake }

// Enqueue appends a frame to the transmit queue and starts contention if the
// station is awake and idle.
func (st *refStation) Enqueue(f *frame.Frame) {
	st.queue = append(st.queue, f)
	if st.awake && !st.inTx && !st.waitAck && len(st.queue) == 1 {
		st.startContention()
	}
}

// Doze puts the station to sleep: the radio enters Sleep, pending contention
// is cancelled, queued frames stay queued. A dozing station hears nothing.
func (st *refStation) Doze() {
	if !st.awake {
		return
	}
	if st.inTx || st.waitAck {
		panic(fmt.Sprintf("dcf: station %d dozing mid-exchange", st.id))
	}
	st.awake = false
	st.cancelContention()
	st.dev.SetState(radio.Sleep, nil)
}

// WakeUp transitions the radio out of Sleep; done runs when the radio is
// usable again, after which contention resumes for any queued frames.
func (st *refStation) WakeUp(done func()) {
	if st.awake {
		if done != nil {
			done()
		}
		return
	}
	if st.dev.State() == radio.Idle || st.dev.TransitionLatency(radio.Idle) == 0 {
		// SetState completes synchronously: finish this wake now, ahead of
		// any earlier wake whose end event is still queued.
		st.dev.SetState(radio.Idle, nil)
		st.woke(done)
		return
	}
	st.dev.SetState(radio.Idle, st.onWakeFn)
	st.wakeDone = append(st.wakeDone, done)
}

// onWake ends the oldest in-flight wake transition.
func (st *refStation) onWake() {
	done := st.wakeDone[0]
	n := copy(st.wakeDone, st.wakeDone[1:])
	st.wakeDone[n] = nil
	st.wakeDone = st.wakeDone[:n]
	st.woke(done)
}

func (st *refStation) woke(done func()) {
	st.awake = true
	if st.med.Busy() {
		st.dev.SetState(radio.RX, nil)
	}
	if len(st.queue) > 0 {
		st.startContention()
	}
	if done != nil {
		done()
	}
}

// refPendingSend is one SendAfter response waiting out its gap.
type refPendingSend struct {
	st *refStation
	f  *frame.Frame
	fn func() // p.fire, bound once
}

func (p *refPendingSend) fire() {
	st, f := p.st, p.f
	p.f = nil
	st.freeSends = append(st.freeSends, p)
	st.pendingSends--
	if !st.awake {
		return
	}
	st.transmit(f, false)
}

// SendAfter transmits a frame after a fixed gap without contention. It is
// used for SIFS-separated responses (ACKs, poll responses) and beacons: they
// bypass backoff because the standard grants them priority access.
func (st *refStation) SendAfter(gap sim.Time, f *frame.Frame) {
	var p *refPendingSend
	if n := len(st.freeSends); n > 0 {
		p = st.freeSends[n-1]
		st.freeSends = st.freeSends[:n-1]
	} else {
		p = &refPendingSend{st: st}
		p.fn = p.fire
	}
	p.f = f
	st.pendingSends++
	st.sim.Schedule(gap, p.fn)
}

// CanDoze reports whether the station is quiescent: awake with nothing on
// the air, nothing awaiting an ACK, an empty queue and no pending
// SIFS-responses. Power-save logic must only doze a quiescent station —
// dozing with an ACK still owed would break the peer's retry machinery.
func (st *refStation) CanDoze() bool {
	return st.awake && !st.inTx && !st.waitAck && len(st.queue) == 0 && st.pendingSends == 0
}

// --- CSMA/CA engine ---

func (st *refStation) startContention() {
	if st.difs.Armed() || st.slot.Armed() || st.inTx {
		return
	}
	if !st.haveBO {
		st.slots = st.sim.Rand().Intn(st.cw + 1)
		st.haveBO = true
	}
	if st.med.Busy() {
		return // mediumIdle() will restart us
	}
	st.difs.Reset(st.cfg.DIFS)
}

func (st *refStation) countDown() {
	if st.slots == 0 {
		st.beginDataTx()
		return
	}
	st.slot.Reset(st.cfg.SlotTime)
}

func (st *refStation) onSlot() {
	st.slots--
	if st.slots == 0 {
		// Reached zero in this slot: transmit even if another station
		// started at the same instant — that is exactly how same-slot
		// DCF collisions happen (CCA cannot sense a same-slot start).
		st.beginDataTx()
		return
	}
	if st.med.Busy() {
		return // freeze; mediumIdle will resume the countdown
	}
	st.countDown()
}

// cancelContention stops both contention timers (used when the station
// leaves the listening state entirely, e.g. dozing or transmitting).
func (st *refStation) cancelContention() {
	st.difs.Stop()
	st.slot.Stop()
}

// freezeContention stops only contention timers due strictly after now.
// Those due at the current instant are left to fire so that two stations
// whose backoff expires in the same slot collide, as in real DCF.
func (st *refStation) freezeContention() {
	now := st.sim.Now()
	if st.difs.Deadline() > now {
		st.difs.Stop()
	}
	if st.slot.Deadline() > now {
		st.slot.Stop()
	}
}

// mediumBusy freezes backoff and moves the radio to RX while others talk.
func (st *refStation) mediumBusy() {
	if !st.awake {
		return
	}
	st.freezeContention()
	if !st.inTx && st.dev.State() == radio.Idle {
		st.dev.SetState(radio.RX, nil)
	}
}

// mediumIdle resumes contention after the channel frees up.
func (st *refStation) mediumIdle() {
	if !st.awake {
		return
	}
	if !st.inTx && st.dev.State() == radio.RX {
		st.dev.SetState(radio.Idle, nil)
	}
	if len(st.queue) > 0 && !st.inTx && !st.waitAck {
		st.startContention()
	}
}

func (st *refStation) beginDataTx() {
	if len(st.queue) == 0 {
		return
	}
	st.transmit(st.queue[0], true)
}

// refTxEnd is one transmission's end-of-airtime event at the sender.
type refTxEnd struct {
	st      *refStation
	tracked bool
	fn      func() // e.fire, bound once
}

func (e *refTxEnd) fire() {
	st, tracked := e.st, e.tracked
	st.freeTxEnds = append(st.freeTxEnds, e)
	st.inTx = false
	if st.awake {
		if st.med.Busy() {
			st.dev.SetState(radio.RX, nil)
		} else {
			st.dev.SetState(radio.Idle, nil)
		}
	}
	// Untracked sends (ACKs, beacons) do not go through txDone's
	// continuation, so restart contention for queued data here.
	if !tracked && len(st.queue) > 0 && st.awake && !st.waitAck && !st.inTx {
		st.startContention()
	}
}

// transmit puts f on the air. tracked indicates head-of-queue data subject
// to the ACK/retry machinery; untracked frames (ACKs, beacons) are
// fire-and-forget.
func (st *refStation) transmit(f *frame.Frame, tracked bool) {
	st.cancelContention() // our own transmission must not race our countdown
	st.inTx = true
	st.trackedTx = tracked
	dur := st.cfg.AirTime(f.Size())
	st.dev.SetState(radio.TX, nil)
	var e *refTxEnd
	if n := len(st.freeTxEnds); n > 0 {
		e = st.freeTxEnds[n-1]
		st.freeTxEnds = st.freeTxEnds[:n-1]
	} else {
		e = &refTxEnd{st: st}
		e.fn = e.fire
	}
	e.tracked = tracked
	st.sim.Schedule(dur, e.fn)
	st.med.begin(st, f)
}

// txDone is called by the medium when our transmission left the air.
// delivered reports whether the frame arrived uncorrupted and uncollided.
func (st *refStation) txDone(f *frame.Frame, delivered bool) {
	if !st.trackedTx {
		return
	}
	if f.To == frame.Broadcast || st.NoAck {
		// No ACK expected: treat air-done as sent.
		st.completeHead(f, true)
		return
	}
	if delivered {
		// Expect an ACK after SIFS; allow for its airtime.
		st.waitAck = true
		st.ackTimer.Reset(st.cfg.SIFS + st.cfg.AirTime(frame.AckSize) + st.cfg.AckTimeout)
	} else {
		// Collision or corruption: the receiver never saw it; schedule retry.
		st.retry(f)
	}
}

func (st *refStation) onAckTimeout() {
	if !st.waitAck {
		return
	}
	st.waitAck = false
	st.retry(st.queue[0])
}

func (st *refStation) retry(f *frame.Frame) {
	st.attempts++
	st.stats.Retries++
	if st.attempts > st.cfg.RetryLimit {
		st.completeHead(f, false)
		return
	}
	if st.cw < st.cfg.CWMax {
		st.cw = st.cw*2 + 1
		if st.cw > st.cfg.CWMax {
			st.cw = st.cfg.CWMax
		}
	}
	st.haveBO = false
	st.startContention()
}

// completeHead finishes the head-of-queue frame (success or drop) and starts
// contention for the next.
func (st *refStation) completeHead(f *frame.Frame, ok bool) {
	if len(st.queue) > 0 && st.queue[0] == f {
		// Shift in place: re-slicing from the front would shrink the
		// capacity and make later Enqueues reallocate.
		n := copy(st.queue, st.queue[1:])
		st.queue[n] = nil
		st.queue = st.queue[:n]
	}
	st.attempts = 0
	st.cw = st.cfg.CWMin
	st.haveBO = false
	if ok {
		st.stats.Sent++
		st.stats.BytesSent += f.Payload
	} else {
		st.stats.Dropped++
	}
	if st.OnSent != nil {
		st.OnSent(f, ok)
	}
	if len(st.queue) > 0 && st.awake {
		st.startContention()
	}
}

// receive handles a frame addressed to (or broadcast at) this station.
func (st *refStation) receive(f *frame.Frame) {
	if f.Kind == frame.Ack && f.To == st.id {
		if st.waitAck {
			st.waitAck = false
			st.ackTimer.Stop()
			st.completeHead(st.queue[0], true)
		}
		return
	}
	// Unicast data and PS-Polls get a SIFS-separated ACK — including
	// MAC-level retransmissions, whose original ACK may have been lost.
	if (f.Kind == frame.Data || f.Kind == frame.PSPoll) && f.To == st.id {
		ack := frame.NewAck(st.id, f.From)
		st.SendAfter(st.cfg.SIFS, &ack)
		if last, seen := st.lastSeq[f.From]; seen && last == f.Seq {
			return // duplicate retransmission: ACKed but not re-delivered
		}
		st.lastSeq[f.From] = f.Seq
	}
	st.stats.Received++
	st.stats.BytesRecv += f.Payload
	if st.OnReceive != nil {
		st.OnReceive(f)
	}
}
