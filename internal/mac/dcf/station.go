package dcf

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/radio"
	"repro/internal/sim"
)

// StationStats aggregates per-station MAC counters.
type StationStats struct {
	Sent      int // frames successfully acknowledged (or fire-and-forget done)
	Dropped   int // frames dropped after retry limit
	Retries   int
	Received  int // data frames received (excludes ACKs)
	BytesSent int
	BytesRecv int
}

// Station is one 802.11 DCF node (an access point is simply the station with
// id frame.AP). It owns a radio device for energy accounting and implements
// CSMA/CA: DIFS sensing, slotted binary-exponential backoff with freezing,
// ACK-based retransmission, and doze control for power saving. DIFS and the
// backoff countdown are two Timers; the countdown spends one event per quiet
// stretch of slots, not one per slot (see countDown).
type Station struct {
	id  int
	med *Medium
	sim *sim.Simulator
	dev *radio.Device
	cfg Config

	queue     []frame.Frame
	awake     bool
	inTx      bool
	trackedTx bool // in-flight frame is head-of-queue data awaiting ACK handling
	waitAck   bool
	attempts  int
	cw        int
	slots     int // remaining backoff slots
	jump      int // backoff slots the pending countdown event covers
	haveBO    bool

	// difs ends the DIFS sensing period and starts the countdown;
	// countdown ends a stretch of backoff slots. Leaving the listening
	// state (doze, our own transmission) stops both; the freeze path stops
	// only those due strictly after now, leaving same-instant ones alive to
	// model DCF collisions.
	difs      *sim.Timer
	countdown *sim.Timer
	ackTimer  *sim.Timer

	// onWakeFn is st.onWake bound once in NewStation, so the radio wake
	// path schedules without allocating.
	onWakeFn func()
	// wakeDone holds the done callbacks of wakes whose radio transition is
	// still in flight, oldest first. Transitioning() is already false at
	// the transition's end instant, so a second wake can start before the
	// first one's end event fires.
	wakeDone []func()
	// Free lists of per-event records: a transmit end and a SIFS response
	// can both be pending at once, so neither fits a single field.
	freeTxEnds []*txEnd
	freeSends  []*pendingSend

	ackWait      sim.Time    // SIFS plus ACK airtime plus ACK timeout
	lastSeq      map[int]int // per-sender dedup of MAC retransmissions
	pendingSends int         // SendAfter responses not yet on the air
	// done is the frame completeHead just took off the queue, which OnSent
	// points at.
	done frame.Frame

	stats StationStats

	// OnReceive is invoked for every successfully received data/beacon/poll
	// frame (not ACKs, which the MAC consumes internally). f is valid only
	// for the duration of the call.
	OnReceive func(f *frame.Frame)
	// OnSent is invoked when a frame leaves the queue: ok=true after a
	// successful (acknowledged or broadcast) transmission, false on drop.
	// f is valid only for the duration of the call.
	OnSent func(f *frame.Frame, ok bool)
	// NoAck disables the ACK/retry machinery for this station's frames
	// (used for broadcast-like flows and by EC-MAC-style experiments).
	NoAck bool
}

// NewStation attaches a new station to the medium. The radio must already be
// awake in the Idle state (use radio.NewDeviceInState): stations model
// already-associated devices, not ones paying a power-up cost mid-protocol.
func NewStation(id int, m *Medium, dev *radio.Device) *Station {
	if dev.State() != radio.Idle {
		panic(fmt.Sprintf("dcf: station %d radio must start in Idle, got %v", id, dev.State()))
	}
	st := &Station{id: id, med: m, sim: m.sim, dev: dev, cfg: m.cfg, awake: true,
		cw: m.cfg.CWMin, lastSeq: make(map[int]int),
		ackWait: m.cfg.SIFS + m.cfg.AirTime(frame.AckSize) + m.cfg.AckTimeout}
	st.difs = sim.NewTimer(m.sim, st.countDown)
	st.countdown = sim.NewTimer(m.sim, st.onSlot)
	st.ackTimer = sim.NewTimer(m.sim, st.onAckTimeout)
	st.onWakeFn = st.onWake
	m.attach(st)
	return st
}

// Device returns the station's radio.
func (st *Station) Device() *radio.Device { return st.dev }

// Stats returns a copy of the station counters.
func (st *Station) Stats() StationStats { return st.stats }

// Awake reports whether the station is listening to the medium.
func (st *Station) Awake() bool { return st.awake }

// Enqueue appends a copy of f to the transmit queue and starts contention
// if the station is awake and idle. The station does not retain f.
func (st *Station) Enqueue(f *frame.Frame) {
	st.queue = append(st.queue, *f)
	if st.awake && !st.inTx && !st.waitAck && len(st.queue) == 1 {
		st.startContention()
	}
}

// Doze puts the station to sleep: the radio enters Sleep, pending contention
// is cancelled, queued frames stay queued. A dozing station hears nothing.
func (st *Station) Doze() {
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
func (st *Station) WakeUp(done func()) {
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
func (st *Station) onWake() {
	done := st.wakeDone[0]
	n := copy(st.wakeDone, st.wakeDone[1:])
	st.wakeDone[n] = nil
	st.wakeDone = st.wakeDone[:n]
	st.woke(done)
}

func (st *Station) woke(done func()) {
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

// pendingSend is one SendAfter response waiting out its gap.
type pendingSend struct {
	st *Station
	f  frame.Frame
	fn func() // p.fire, bound once
}

func (p *pendingSend) fire() {
	st, f := p.st, p.f
	st.freeSends = append(st.freeSends, p)
	st.pendingSends--
	if !st.awake {
		return
	}
	st.transmit(&f, false)
}

// SendAfter transmits a copy of f after a fixed gap without contention. It
// is used for SIFS-separated responses (ACKs, poll responses) and beacons:
// they bypass backoff because the standard grants them priority access.
// The station does not retain f.
func (st *Station) SendAfter(gap sim.Time, f *frame.Frame) {
	var p *pendingSend
	if n := len(st.freeSends); n > 0 {
		p = st.freeSends[n-1]
		st.freeSends = st.freeSends[:n-1]
	} else {
		p = &pendingSend{st: st}
		p.fn = p.fire
	}
	p.f = *f
	st.pendingSends++
	st.sim.Schedule(gap, p.fn)
}

// CanDoze reports whether the station is quiescent: awake with nothing on
// the air, nothing awaiting an ACK, an empty queue and no pending
// SIFS-responses. Power-save logic must only doze a quiescent station —
// dozing with an ACK still owed would break the peer's retry machinery.
func (st *Station) CanDoze() bool {
	return st.awake && !st.inTx && !st.waitAck && len(st.queue) == 0 && st.pendingSends == 0
}

// --- CSMA/CA engine ---

func (st *Station) startContention() {
	if st.difs.Armed() || st.countdown.Armed() || st.inTx {
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

// countDown runs when DIFS ends and after each countdown stretch. It arms
// the countdown timer for the next stretch of backoff slots, or transmits
// when none are left. On an idle medium the stretch covers every slot
// boundary before the simulator's next queued instant (see quietSlots); on
// a busy one — a DIFS expiry at the instant a frame went on the air
// survives the freeze — it covers exactly one slot, whose end freezes the
// count.
func (st *Station) countDown() {
	if st.slots == 0 {
		st.beginDataTx()
		return
	}
	st.jump = 1
	if !st.med.Busy() {
		st.jump = st.quietSlots()
	}
	st.countdown.Reset(sim.Time(st.jump) * st.cfg.SlotTime)
}

// quietSlots returns how many backoff slots the next countdown event may
// cover without any other code seeing the difference from one event per
// slot: the slots that end no later than the simulator's next queued
// instant, at least one and at most the slots left. The boundaries in
// between would only decrement this station's own counter, and the one
// event keeps its (at, seq) order against every other event, because
// nothing fires between now and its instant to schedule a rival.
//
// Entries queued at now fire after us and normally bound the stretch to
// one slot. The exception is a group of stations counting in lockstep:
// when every such entry is a peer's DIFS or countdown event, each only
// decrements and reschedules its own counter, so the stretch may run to
// the next later instant, stopping at the earliest slot boundary where a
// peer's count reaches zero and it transmits.
func (st *Station) quietSlots() int {
	now := st.sim.Now()
	first, n, next := st.sim.Lookahead()
	limit, most := first, st.slots
	if first == now {
		peers := 0
		for _, p := range st.med.order {
			if p == st {
				continue
			}
			if left, ok := p.slotsAfter(now); ok {
				peers++
				most = min(most, left)
			}
		}
		if peers != n {
			return 1
		}
		limit = next
	}
	return int(max(1, min((limit-now)/st.cfg.SlotTime, sim.Time(most))))
}

// slotsAfter reports whether the station has a DIFS or countdown event
// queued at t and, if so, how many backoff slots it has left once that
// event has fired. At most one of the two timers is armed (DIFS arms only
// with both stopped, the countdown only once DIFS has fired), so the
// countdown, the one a peer counting in lockstep holds, is read first.
func (st *Station) slotsAfter(t sim.Time) (int, bool) {
	if st.countdown.Deadline() == t {
		return st.slots - st.jump, true
	}
	if st.difs.Deadline() == t {
		return st.slots, true
	}
	return 0, false
}

func (st *Station) onSlot() {
	st.slots -= st.jump
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
// leaves the listening state entirely, e.g. dozing or transmitting). A
// countdown stopped at its own instant first charges the slot boundaries
// before it, which one event per slot would already have counted; at any
// earlier instant it covers one slot, since nothing can run inside a
// longer stretch.
func (st *Station) cancelContention() {
	if st.countdown.Deadline() == st.sim.Now() {
		st.slots -= st.jump - 1
	}
	st.difs.Stop()
	st.countdown.Stop()
}

// freezeContention stops only contention timers due strictly after now.
// Those due at the current instant are left to fire so that two stations
// whose backoff expires in the same slot collide, as in real DCF. A
// stopped timer's Deadline is MaxTime, and stopping it again is a no-op.
func (st *Station) freezeContention() {
	now := st.sim.Now()
	if st.difs.Deadline() > now {
		st.difs.Stop()
	}
	if st.countdown.Deadline() > now {
		st.countdown.Stop()
	}
}

// mediumBusy freezes backoff and moves the radio to RX while others talk.
func (st *Station) mediumBusy() {
	if !st.awake {
		return
	}
	st.freezeContention()
	if !st.inTx && st.dev.State() == radio.Idle {
		st.dev.SetState(radio.RX, nil)
	}
}

// mediumIdle resumes contention after the channel frees up.
func (st *Station) mediumIdle() {
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

func (st *Station) beginDataTx() {
	if len(st.queue) == 0 {
		return
	}
	st.transmit(&st.queue[0], true)
}

// txEnd is one transmission's end-of-airtime event at the sender.
type txEnd struct {
	st      *Station
	tracked bool
	fn      func() // e.fire, bound once
}

func (e *txEnd) fire() {
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

// transmit puts a copy of f on the air. tracked indicates head-of-queue
// data subject to the ACK/retry machinery; untracked frames (ACKs,
// beacons) are fire-and-forget.
func (st *Station) transmit(f *frame.Frame, tracked bool) {
	st.cancelContention() // our own transmission must not race our countdown
	st.inTx = true
	st.trackedTx = tracked
	dur := st.cfg.AirTime(f.Size())
	st.dev.SetState(radio.TX, nil)
	var e *txEnd
	if n := len(st.freeTxEnds); n > 0 {
		e = st.freeTxEnds[n-1]
		st.freeTxEnds = st.freeTxEnds[:n-1]
	} else {
		e = &txEnd{st: st}
		e.fn = e.fire
	}
	e.tracked = tracked
	st.sim.Schedule(dur, e.fn)
	st.med.begin(st, f)
}

// txDone is called by the medium when our transmission left the air.
// delivered reports whether the frame arrived uncorrupted and uncollided.
func (st *Station) txDone(f *frame.Frame, delivered bool) {
	if !st.trackedTx {
		return
	}
	if f.To == frame.Broadcast || st.NoAck {
		// No ACK expected: treat air-done as sent.
		st.completeHead(true)
		return
	}
	if delivered {
		// Expect an ACK after SIFS; allow for its airtime.
		st.waitAck = true
		st.ackTimer.Reset(st.ackWait)
	} else {
		// Collision or corruption: the receiver never saw it; schedule retry.
		st.retry()
	}
}

func (st *Station) onAckTimeout() {
	if !st.waitAck {
		return
	}
	st.waitAck = false
	st.retry()
}

// retry backs off and contends again for the head-of-queue frame, or
// drops it once the retry limit is spent.
func (st *Station) retry() {
	st.attempts++
	st.stats.Retries++
	if st.attempts > st.cfg.RetryLimit {
		st.completeHead(false)
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
// contention for the next. Only tracked head-of-queue data reaches it, so
// the queue is never empty here.
func (st *Station) completeHead(ok bool) {
	st.done = st.queue[0]
	// Shift in place: re-slicing from the front would shrink the capacity
	// and make later Enqueues reallocate.
	st.queue = st.queue[:copy(st.queue, st.queue[1:])]
	st.attempts = 0
	st.cw = st.cfg.CWMin
	st.haveBO = false
	if ok {
		st.stats.Sent++
		st.stats.BytesSent += st.done.Payload
	} else {
		st.stats.Dropped++
	}
	if st.OnSent != nil {
		st.OnSent(&st.done, ok)
	}
	if len(st.queue) > 0 && st.awake {
		st.startContention()
	}
}

// receive handles a frame addressed to (or broadcast at) this station.
func (st *Station) receive(f *frame.Frame) {
	if f.Kind == frame.Ack && f.To == st.id {
		if st.waitAck {
			st.waitAck = false
			st.ackTimer.Stop()
			st.completeHead(true)
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
