// Package transport implements a reduced TCP (slow start, congestion
// avoidance, fast retransmit, RTO backoff), UDP-style datagram delivery and
// the split-connection proxy arrangement the paper lists among transport
// mitigations for wireless links. The experiments show the classic
// pathology: end-to-end TCP misreads wireless corruption as congestion,
// while a split connection confines recovery to the short wireless hop.
package transport

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Packet is one transport segment on a link.
type Packet struct {
	Seq    int // first payload byte offset
	Len    int // payload length (0 for pure ACKs)
	Ack    int // cumulative acknowledgement (next expected byte)
	SentAt sim.Time
}

// wireBytes is the on-air size: payload plus TCP/IP-ish header.
func (p *Packet) wireBytes() int { return p.Len + 40 }

// Link is a unidirectional serialized pipe with a rate, a propagation delay
// and a per-packet loss process.
type Link struct {
	sim   *sim.Simulator
	rate  float64 // bits/second
	delay sim.Time
	// Loss, if non-nil, samples whether a packet of n wire bytes is lost.
	Loss func(bytes int) bool

	// Snoop enables base-station local repair: a lost packet is locally
	// retransmitted (re-sampling the loss process, paying airtime and
	// RepairDelay per attempt) instead of surfacing as an end-to-end drop.
	// This models a snoop agent's effect on the TCP sender: loss becomes
	// delay jitter.
	Snoop       bool
	RepairDelay sim.Time
	// RepairLimit bounds local retransmissions; a packet that fails them
	// all is finally dropped (default 6 when Snoop is set).
	RepairLimit int

	busyUntil sim.Time
	free      []*inFlight // recycled delivery records

	// Counters for energy/goodput accounting.
	Lost     int
	Repairs  int
	BusyTime sim.Time
}

// inFlight is one packet on its way to the far end, pooled on its link's
// free list. fn is fire, bound once when the record is first allocated.
type inFlight struct {
	l       *Link
	pkt     Packet
	deliver func(*Packet)
	fn      func()
}

// fire hands the packet to its receiver, then recycles the record.
func (f *inFlight) fire() {
	f.deliver(&f.pkt)
	f.l.free = append(f.l.free, f)
}

// NewLink creates a link with the given rate (bits/s) and one-way delay.
func NewLink(s *sim.Simulator, rate float64, delay sim.Time) *Link {
	if !(rate > 0) || math.IsInf(rate, 1) || delay < 0 {
		panic(fmt.Sprintf("transport: invalid link rate=%g delay=%v", rate, delay))
	}
	return &Link{sim: s, rate: rate, delay: delay}
}

// Send serializes the packet onto the link and schedules delivery. Packets
// queue behind in-flight ones (FIFO); lost packets still consume airtime.
// Send copies *p, so the caller may reuse it at once; the *Packet handed
// to deliver is the link's copy and is valid only during that call.
func (l *Link) Send(p *Packet, deliver func(*Packet)) {
	tx := sim.FromSeconds(float64(p.wireBytes()*8) / l.rate)
	start := sim.Max(l.sim.Now(), l.busyUntil)
	end := start + tx
	l.busyUntil = end
	l.BusyTime += tx
	lost := l.Loss != nil && l.Loss(p.wireBytes())
	if lost {
		l.Lost++
		if !l.Snoop {
			return
		}
		// Local repair: retransmit until the loss process relents or the
		// attempt budget runs out. Each attempt pays airtime and the
		// repair round trip; the end-to-end sender only sees added delay.
		limit := l.RepairLimit
		if limit <= 0 {
			limit = 6
		}
		for attempt := 1; attempt <= limit; attempt++ {
			l.Repairs++
			l.BusyTime += tx
			l.busyUntil += tx
			end = l.busyUntil + sim.Time(attempt)*l.RepairDelay
			if l.Loss == nil || !l.Loss(p.wireBytes()) {
				l.deliverAt(end+l.delay, p, deliver)
				return
			}
		}
		return // finally dropped; the end-to-end RTO recovers
	}
	l.deliverAt(end+l.delay, p, deliver)
}

// deliverAt schedules deliver(copy of *p) at time at.
func (l *Link) deliverAt(at sim.Time, p *Packet, deliver func(*Packet)) {
	var f *inFlight
	if n := len(l.free); n > 0 {
		f = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		f = &inFlight{l: l}
		f.fn = f.fire
	}
	f.pkt, f.deliver = *p, deliver
	l.sim.At(at, f.fn)
}

// SendDatagram provides UDP semantics: fire-and-forget with the same
// serialization and loss process. It reports whether the datagram survived
// (known only to the simulator, as in real UDP).
func (l *Link) SendDatagram(bytes int, deliver func()) bool {
	tx := sim.FromSeconds(float64(bytes*8) / l.rate)
	start := sim.Max(l.sim.Now(), l.busyUntil)
	end := start + tx
	l.busyUntil = end
	l.BusyTime += tx
	if l.Loss != nil && l.Loss(bytes) {
		l.Lost++
		return false
	}
	if deliver != nil {
		l.sim.At(end+l.delay, deliver)
	}
	return true
}
