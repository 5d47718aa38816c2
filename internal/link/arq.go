package link

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/radio"
	"repro/internal/sim"
)

// power is the state draw, in watts, of the card at both ends of every
// link: the 802.11b WNIC of radio.WLAN80211b.
var power = radio.WLAN80211b().Power

// ARQKind selects the retransmission discipline.
type ARQKind int

// Retransmission disciplines.
const (
	// NoARQ sends each packet once; uncorrectable packets are lost.
	NoARQ ARQKind = iota
	// SelectiveRepeat pipelines a window and retransmits only losses.
	SelectiveRepeat
)

// String names the discipline.
func (k ARQKind) String() string {
	switch k {
	case NoARQ:
		return "no-arq"
	case SelectiveRepeat:
		return "selective-repeat"
	default:
		return fmt.Sprintf("arq(%d)", int(k))
	}
}

// Params configures a link-layer transfer.
type Params struct {
	// PacketBytes is the payload per packet before FEC expansion.
	PacketBytes int
	// HeaderBytes is the per-packet link header (not FEC protected, small
	// enough that we fold its errors into the coded block).
	HeaderBytes int
	// Code is the FEC applied to each packet.
	Code Code
	// ARQ is the retransmission discipline.
	ARQ ARQKind
	// Window is the pipeline depth for SelectiveRepeat.
	Window int
	// BitRate is the link rate in bits/second.
	BitRate float64
	// PropDelay is the one-way propagation delay.
	PropDelay sim.Time
	// AckBytes is the acknowledgement size; ACKs are assumed error-free
	// (they are short and heavily protected), a standard modelling choice.
	AckBytes int
	// RetryLimit bounds per-packet retransmissions (ARQ modes). Exceeding
	// it counts the packet as lost.
	RetryLimit int

	// Deadline, when nonzero, is an absolute simulation time after which
	// the transfer stops starting new work and returns a partial result.
	// Adaptive ARQ uses it to keep adaptation epochs time-bounded.
	Deadline sim.Time
}

// DefaultParams returns the E8/E9 baseline: 1400-byte packets over a
// 2 Mb/s link. Both ends' energy is charged at the state powers of the
// radio.WLAN80211b card.
func DefaultParams() Params {
	return Params{
		PacketBytes: 1400,
		HeaderBytes: 16,
		Code:        NoCode(1400),
		ARQ:         SelectiveRepeat,
		Window:      8,
		BitRate:     2e6,
		PropDelay:   5 * sim.Microsecond,
		AckBytes:    16,
		RetryLimit:  16,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.PacketBytes <= 0 {
		return fmt.Errorf("link: packet payload %d must be positive", p.PacketBytes)
	}
	if !(p.BitRate > 0) || math.IsInf(p.BitRate, 1) {
		return fmt.Errorf("link: bit rate %g must be positive and finite", p.BitRate)
	}
	if p.HeaderBytes < 0 || p.AckBytes < 0 || p.RetryLimit < 0 {
		return fmt.Errorf("link: negative header (%d), ACK (%d) or retry limit (%d)", p.HeaderBytes, p.AckBytes, p.RetryLimit)
	}
	if p.PropDelay < 0 || p.Deadline < 0 {
		return fmt.Errorf("link: negative propagation delay (%v) or deadline (%v)", p.PropDelay, p.Deadline)
	}
	if err := p.Code.Validate(); err != nil {
		return err
	}
	if p.Code.K != p.PacketBytes {
		return fmt.Errorf("link: code block (%d) must equal packet payload (%d)", p.Code.K, p.PacketBytes)
	}
	if p.ARQ != NoARQ && p.ARQ != SelectiveRepeat {
		return fmt.Errorf("link: unknown ARQ discipline %v", p.ARQ)
	}
	if p.ARQ == SelectiveRepeat && p.Window <= 0 {
		return fmt.Errorf("link: window must be positive for pipelined ARQ")
	}
	return nil
}

// wireBytes returns a packet's on-air size after FEC and header.
func (p Params) wireBytes() int { return p.Code.N + p.HeaderBytes }

// airTime returns the on-air time of one data packet.
func (p Params) airTime() sim.Time {
	return sim.FromSeconds(float64(p.wireBytes()*8) / p.BitRate)
}

// ackTime returns the on-air time of one acknowledgement.
func (p Params) ackTime() sim.Time {
	return sim.FromSeconds(float64(p.AckBytes*8) / p.BitRate)
}

// Result reports a transfer's outcome.
type Result struct {
	DeliveredPackets int
	LostPackets      int
	Transmissions    int // data packets put on the air, incl. retransmissions
	Acks             int
	Duration         sim.Time
	EnergyJ          float64 // sender + receiver
	EnergyPerBitJ    float64 // per *delivered* payload bit
}

// Transfer moves totalPackets packets across the channel under the given
// parameters and returns the outcome. Energy combines both radios: TX/RX
// airtime at their respective powers plus idle listening for the rest of
// the transfer duration.
func Transfer(s *sim.Simulator, ch *channel.GilbertElliott, p Params, totalPackets int) Result {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if totalPackets <= 0 {
		panic("link: totalPackets must be positive")
	}
	eng := newEngine(s, ch, p, totalPackets)
	eng.run()
	s.Run()
	return eng.result()
}

// engine holds shared transfer state. A finished engine deliberately never
// cancels its leftover queued events: their airtime completions still draw
// from the channel's error process when they fire (the done-guards make
// them no-ops otherwise), and the adaptive-ARQ experiments run several
// transfers on one simulator — cancelling would shift every later RNG
// draw. The pooled transmission records keep this: a record belongs to
// the engine that sent it, so a leftover event fires against its own
// finished engine, samples the channel and returns the record to that
// engine's free list.
type engine struct {
	s     *sim.Simulator
	ch    *channel.GilbertElliott
	p     Params
	total int

	wire     int      // data packet on-air bytes
	air      sim.Time // data packet airtime
	ackAir   sim.Time // ACK airtime
	ackDelay sim.Time // data-packet completion to ACK receipt

	startAt   sim.Time
	endAt     sim.Time
	delivered int
	lost      int
	txCount   int
	ackCount  int
	started   bool
	done      bool

	free []*xmit // recycled transmission records

	// Selective repeat's window. NoARQ keeps no discipline state.
	base    int // oldest unresolved packet
	next    int // next packet to put on the air
	sending bool
	ring    []srSlot // packet seq's state is ring[seq%Window]
	queue   []int    // retransmission queue, consumed from qHead
	qHead   int
}

// srSlot is selective repeat's state for one packet in [base, next). Every
// unresolved packet lies in that range and next <= base+Window, so a ring
// of Window slots holds them all; a slot is cleared as base passes it.
type srSlot struct {
	attempts int
	acked    bool
	dropped  bool // retry limit exceeded
}

// xmit is one data packet's transmission, pooled on its engine's free
// list. airFn fires at the end of its airtime, ackFn (selective repeat
// only) when the receiver's reply reaches the sender. Both are bound once,
// when the record is first allocated.
type xmit struct {
	e     *engine
	seq   int
	ok    bool // the FEC decoded the block
	airFn func()
	ackFn func()
}

func newEngine(s *sim.Simulator, ch *channel.GilbertElliott, p Params, total int) *engine {
	e := &engine{
		s: s, ch: ch, p: p, total: total,
		wire:   p.wireBytes(),
		air:    p.airTime(),
		ackAir: p.ackTime(),
	}
	e.ackDelay = 2*p.PropDelay + e.ackAir
	if p.ARQ == SelectiveRepeat {
		e.ring = make([]srSlot, p.Window)
	}
	return e
}

func (e *engine) run() {
	switch e.p.ARQ {
	case NoARQ:
		e.sendIdx(0)
	case SelectiveRepeat:
		e.pumpSR()
	}
}

func (e *engine) begin() {
	if !e.started {
		e.started = true
		e.startAt = e.s.Now()
	}
}

// expired reports whether the transfer's deadline has passed.
func (e *engine) expired() bool {
	return e.p.Deadline > 0 && e.s.Now() >= e.p.Deadline
}

// finish stamps the transfer end and stops the simulator loop: the channel
// process schedules events forever, so Transfer's Run would never drain.
// Engines are reused never; the done flag also inert-izes any of this
// engine's events that remain queued when the same simulator hosts a
// subsequent transfer (adaptive ARQ runs one per epoch).
func (e *engine) finish() {
	if e.done {
		return
	}
	e.done = true
	e.endAt = e.s.Now()
	e.s.Stop()
}

// sendPacket models one data-packet transmission: it occupies airtime,
// then the record's onAir samples the channel.
func (e *engine) sendPacket(seq int) {
	e.begin()
	e.txCount++
	var x *xmit
	if n := len(e.free); n > 0 {
		x = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		x = &xmit{e: e}
		x.airFn = x.onAir
		x.ackFn = x.onAck
	}
	x.seq = seq
	e.s.Schedule(e.air, x.airFn)
}

func (e *engine) release(x *xmit) { e.free = append(e.free, x) }

// onAir ends the airtime: the channel is sampled even when the engine has
// finished (see engine), then ok says whether the FEC decoded the block.
func (x *xmit) onAir() {
	e := x.e
	x.ok = e.p.Code.Corrects(e.ch.SampleBitErrors(e.wire))
	if e.done {
		e.release(x)
		return
	}
	if e.p.ARQ == NoARQ {
		if x.ok {
			e.delivered++
		} else {
			e.lost++
		}
		seq := x.seq
		e.release(x)
		e.sendIdx(seq + 1)
		return
	}
	e.sending = false
	e.s.Schedule(e.ackDelay, x.ackFn)
	e.pumpSR()
}

// onAck handles the receiver's reply at the sender.
func (x *xmit) onAck() {
	e, seq, ok := x.e, x.seq, x.ok
	e.release(x)
	if e.done {
		return
	}
	e.ackSR(seq, ok)
}

func (e *engine) result() Result {
	dur := e.endAt - e.startAt
	r := Result{
		DeliveredPackets: e.delivered,
		LostPackets:      e.lost,
		Transmissions:    e.txCount,
		Acks:             e.ackCount,
		Duration:         dur,
	}
	if dur <= 0 {
		return r
	}
	payloadBits := float64(e.delivered * e.p.PacketBytes * 8)

	air := e.air.Seconds()
	ack := e.ackAir.Seconds()
	// Each product is rounded on its own so no target fuses it into a sum
	// (FMA); amd64 never fuses, so the rounding is the same there.
	txTime := float64(float64(e.txCount) * air)
	ackTime := float64(float64(e.ackCount) * ack)
	total := dur.Seconds()
	idle := total - txTime - ackTime
	senderE := float64(txTime*power[radio.TX]) + float64(ackTime*power[radio.RX]) +
		float64(idle*power[radio.Idle])
	receiverE := float64(txTime*power[radio.RX]) + float64(ackTime*power[radio.TX]) +
		float64(idle*power[radio.Idle])
	r.EnergyJ = senderE + receiverE
	if payloadBits > 0 {
		r.EnergyPerBitJ = r.EnergyJ / payloadBits
	}
	return r
}

// --- NoARQ (fire and forget) ---

// sendIdx puts packet i on the air, or finishes when none is left or the
// deadline has passed.
func (e *engine) sendIdx(i int) {
	if e.done {
		return
	}
	if i >= e.total || e.expired() {
		e.finish()
		return
	}
	e.sendPacket(i)
}

// --- Selective repeat ---

func (e *engine) pumpSR() {
	if e.done || e.sending {
		return
	}
	// Advance base past acked/lost packets.
	for e.base < e.total {
		sl := e.slot(e.base)
		if !sl.acked && !sl.dropped {
			break
		}
		*sl = srSlot{}
		e.base++
	}
	if e.base >= e.total || e.expired() {
		e.finish()
		return
	}
	// Pick retransmission first, else a fresh packet inside the window.
	seq := -1
	for e.qHead < len(e.queue) {
		cand := e.queue[e.qHead]
		e.qHead++
		if sl := e.slot(cand); !sl.acked && !sl.dropped {
			seq = cand
			break
		}
	}
	if e.qHead == len(e.queue) {
		e.queue, e.qHead = e.queue[:0], 0
	}
	if seq == -1 {
		if e.next < e.total && e.next < e.base+e.p.Window {
			seq = e.next
			e.next++
		} else {
			return // waiting for ACKs/NACKs
		}
	}
	e.sending = true
	e.sendPacket(seq)
}

func (e *engine) slot(seq int) *srSlot { return &e.ring[seq%len(e.ring)] }

func (e *engine) ackSR(seq int, ok bool) {
	e.ackCount++
	sl := e.slot(seq)
	if ok {
		if !sl.acked {
			sl.acked = true
			e.delivered++
		}
	} else {
		sl.attempts++
		if sl.attempts > e.p.RetryLimit {
			sl.dropped = true
			e.lost++
		} else {
			e.queue = append(e.queue, seq)
		}
	}
	e.pumpSR()
}
