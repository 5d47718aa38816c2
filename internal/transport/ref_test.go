package transport

import (
	"fmt"

	"repro/internal/sim"
)

// This file keeps the package's original event path as the oracle the
// pooled one must match bit for bit (oracle_test.go): refLink allocates
// a delivery closure per packet, refTCPConn a Packet per segment and ACK
// and a method value per send, and refUDPStream one closure pair per
// datagram. Only the fused-multiply-add sites carry the explicit product
// rounding the package has, so the two agree on targets that fuse.

// refLink is a unidirectional serialized pipe with a rate, a propagation delay
// and a per-packet loss process.
type refLink struct {
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

	// Counters for energy/goodput accounting.
	Packets  int
	Bytes    int
	Lost     int
	Repairs  int
	BusyTime sim.Time
}

// newRefLink creates a link with the given rate (bits/s) and one-way delay.
func newRefLink(s *sim.Simulator, rate float64, delay sim.Time) *refLink {
	if rate <= 0 || delay < 0 {
		panic(fmt.Sprintf("transport: invalid link rate=%g delay=%v", rate, delay))
	}
	return &refLink{sim: s, rate: rate, delay: delay}
}

// Send serializes the packet onto the link and schedules delivery. Packets
// queue behind in-flight ones (FIFO); lost packets still consume airtime.
func (l *refLink) Send(p *Packet, deliver func(*Packet)) {
	tx := sim.FromSeconds(float64(p.wireBytes()*8) / l.rate)
	start := sim.Max(l.sim.Now(), l.busyUntil)
	end := start + tx
	l.busyUntil = end
	l.Packets++
	l.Bytes += p.wireBytes()
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
				l.sim.At(end+l.delay, func() { deliver(p) })
				return
			}
		}
		return // finally dropped; the end-to-end RTO recovers
	}
	l.sim.At(end+l.delay, func() { deliver(p) })
}

// SendDatagram provides UDP semantics: fire-and-forget with the same
// serialization and loss process. It reports whether the datagram survived
// (known only to the simulator, as in real UDP).
func (l *refLink) SendDatagram(bytes int, deliver func()) bool {
	p := &Packet{Len: bytes - 40}
	if p.Len < 0 {
		p.Len = 0
	}
	survived := true
	prevLoss := l.Loss
	tx := sim.FromSeconds(float64(bytes*8) / l.rate)
	start := sim.Max(l.sim.Now(), l.busyUntil)
	end := start + tx
	l.busyUntil = end
	l.Packets++
	l.Bytes += bytes
	l.BusyTime += tx
	if prevLoss != nil && prevLoss(bytes) {
		l.Lost++
		survived = false
	} else if deliver != nil {
		l.sim.At(end+l.delay, deliver)
	}
	return survived
}

// refTCPConn is a one-directional reduced TCP connection: a sender pushing a
// byte stream over a forward link, with ACKs returning on a reverse link.
// The receiver side lives inside the same object (it has no independent
// behaviour beyond cumulative ACKs and out-of-order buffering).
type refTCPConn struct {
	sim *sim.Simulator
	cfg TCPConfig
	fwd *refLink
	rev *refLink

	// Sender state.
	total    int // bytes the application wants to send (grows via AddData)
	closed   bool
	sndUna   int
	sndNxt   int
	cwnd     float64
	ssthresh float64
	dupAcks  int
	rto      sim.Time
	rtoTimer *sim.Timer
	srtt     float64
	rttvar   float64
	haveSRTT bool

	// Receiver state.
	rcvNxt int
	ooo    map[int]int // seq -> len

	stats TCPStats

	// OnDeliver is invoked as in-order bytes become available at the
	// receiver (the proxy uses this to feed a chained connection).
	OnDeliver func(n int)
	// OnComplete fires once when every byte of a closed stream is ACKed.
	OnComplete func(at sim.Time)
}

// newRefTCPConn creates a connection over the given forward/reverse links.
func newRefTCPConn(s *sim.Simulator, cfg TCPConfig, fwd, rev *refLink) *refTCPConn {
	if cfg.MSS <= 0 || cfg.MaxCwnd < cfg.MSS {
		panic(fmt.Sprintf("transport: bad TCP config %+v", cfg))
	}
	c := &refTCPConn{
		sim: s, cfg: cfg, fwd: fwd, rev: rev,
		cwnd:     float64(cfg.MSS),
		ssthresh: float64(cfg.MaxCwnd),
		rto:      cfg.InitialRTO,
		ooo:      make(map[int]int),
	}
	c.rtoTimer = sim.NewTimer(s, c.onTimeout)
	return c
}

// AddData appends n bytes to the stream (the application write).
func (c *refTCPConn) AddData(n int) {
	if c.closed {
		panic("transport: AddData after Close")
	}
	c.total += n
	c.pump()
}

// Close marks the stream complete: when all queued bytes are ACKed the
// connection reports completion.
func (c *refTCPConn) Close() {
	c.closed = true
	c.maybeComplete()
}

// Stats returns a copy of the connection counters.
func (c *refTCPConn) Stats() TCPStats { return c.stats }

// pump transmits as much as the window and available data allow.
func (c *refTCPConn) pump() {
	for {
		window := int(c.cwnd)
		if window > c.cfg.MaxCwnd {
			window = c.cfg.MaxCwnd
		}
		inFlight := c.sndNxt - c.sndUna
		if inFlight >= window {
			return
		}
		avail := c.total - c.sndNxt
		if avail <= 0 {
			return
		}
		segLen := c.cfg.MSS
		if segLen > avail {
			segLen = avail
		}
		if segLen > window-inFlight {
			segLen = window - inFlight
		}
		if segLen <= 0 {
			return
		}
		c.sendSegment(c.sndNxt, segLen)
		c.sndNxt += segLen
	}
}

func (c *refTCPConn) sendSegment(seq, length int) {
	c.stats.Segments++
	p := &Packet{Seq: seq, Len: length, SentAt: c.sim.Now()}
	c.fwd.Send(p, c.onDataArrival)
	if !c.rtoTimer.Armed() {
		c.rtoTimer.Reset(c.rto)
	}
}

// onDataArrival is the receiver side: in-order delivery, out-of-order
// buffering and cumulative ACK generation.
func (c *refTCPConn) onDataArrival(p *Packet) {
	if p.Seq == c.rcvNxt {
		c.advance(p.Len)
		// Drain any contiguous buffered segments.
		for {
			l, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.advance(l)
		}
	} else if p.Seq > c.rcvNxt {
		c.ooo[p.Seq] = p.Len
	}
	ack := &Packet{Ack: c.rcvNxt, SentAt: p.SentAt}
	c.rev.Send(ack, c.onAck)
}

func (c *refTCPConn) advance(n int) {
	c.rcvNxt += n
	if c.OnDeliver != nil && n > 0 {
		c.OnDeliver(n)
	}
}

// onAck is the sender reaction: window advance, RTT estimation, congestion
// control, fast retransmit.
func (c *refTCPConn) onAck(p *Packet) {
	c.stats.AcksReceived++
	if p.Ack > c.sndUna {
		c.sndUna = p.Ack
		c.dupAcks = 0
		c.updateRTT(c.sim.Now() - p.SentAt)
		// Congestion window growth.
		if c.cwnd < c.ssthresh {
			c.cwnd += float64(c.cfg.MSS) // slow start
		} else {
			c.cwnd += float64(c.cfg.MSS) * float64(c.cfg.MSS) / c.cwnd
		}
		if c.cwnd > float64(c.cfg.MaxCwnd) {
			c.cwnd = float64(c.cfg.MaxCwnd)
		}
		if c.sndUna >= c.sndNxt {
			c.rtoTimer.Stop()
		} else {
			c.rtoTimer.Reset(c.rto)
		}
		c.maybeComplete()
		c.pump()
		return
	}
	// Duplicate ACK.
	if c.sndUna < c.sndNxt {
		c.dupAcks++
		if c.dupAcks == 3 {
			c.fastRetransmit()
		}
	}
}

func (c *refTCPConn) fastRetransmit() {
	c.stats.FastRetransmits++
	c.stats.Retransmissions++
	flight := float64(c.sndNxt - c.sndUna)
	c.ssthresh = flight / 2
	if c.ssthresh < float64(2*c.cfg.MSS) {
		c.ssthresh = float64(2 * c.cfg.MSS)
	}
	c.cwnd = c.ssthresh
	c.retransmitHead()
}

func (c *refTCPConn) onTimeout() {
	if c.sndUna >= c.sndNxt {
		return
	}
	c.stats.Timeouts++
	c.stats.Retransmissions++
	flight := float64(c.sndNxt - c.sndUna)
	c.ssthresh = flight / 2
	if c.ssthresh < float64(2*c.cfg.MSS) {
		c.ssthresh = float64(2 * c.cfg.MSS)
	}
	c.cwnd = float64(c.cfg.MSS) // collapse to one segment
	c.dupAcks = 0
	c.rto *= 2 // Karn backoff
	if c.rto > 8*sim.Second {
		c.rto = 8 * sim.Second
	}
	c.retransmitHead()
}

// retransmitHead resends the first unacknowledged segment.
func (c *refTCPConn) retransmitHead() {
	length := c.cfg.MSS
	if c.sndUna+length > c.sndNxt {
		length = c.sndNxt - c.sndUna
	}
	if length <= 0 {
		return
	}
	c.stats.Segments++
	p := &Packet{Seq: c.sndUna, Len: length, SentAt: c.sim.Now()}
	c.fwd.Send(p, c.onDataArrival)
	c.rtoTimer.Reset(c.rto)
}

// updateRTT applies Jacobson/Karels smoothing.
func (c *refTCPConn) updateRTT(sample sim.Time) {
	r := sample.Seconds()
	if !c.haveSRTT {
		c.srtt = r
		c.rttvar = r / 2
		c.haveSRTT = true
	} else {
		alpha, beta := 0.125, 0.25
		d := r - c.srtt
		if d < 0 {
			d = -d
		}
		c.rttvar = float64((1-beta)*c.rttvar) + float64(beta*d)
		c.srtt = float64((1-alpha)*c.srtt) + float64(alpha*r)
	}
	rto := sim.FromSeconds(c.srtt + float64(4*c.rttvar))
	if rto < c.cfg.MinRTO {
		rto = c.cfg.MinRTO
	}
	c.rto = rto
}

func (c *refTCPConn) maybeComplete() {
	if c.closed && !c.stats.Done && c.sndUna >= c.total {
		c.stats.Done = true
		c.stats.FinishedAt = c.sim.Now()
		if c.OnComplete != nil {
			c.OnComplete(c.sim.Now())
		}
	}
}

// refClientEnergy estimates the client WNIC energy for a transfer: RX airtime
// for received data, TX airtime for ACKs, idle listening otherwise.
func refClientEnergy(cfg PathConfig, wireless *refLink, ackLink *refLink, dur sim.Time) float64 {
	rx := wireless.BusyTime.Seconds()
	tx := ackLink.BusyTime.Seconds()
	idle := dur.Seconds() - rx - tx
	if idle < 0 {
		idle = 0
	}
	return float64(rx*cfg.RxPower) + float64(tx*cfg.TxPower) + float64(idle*cfg.IdlePower)
}

// refEndToEndTransfer runs one TCP connection across both hops: the wireless
// loss is indistinguishable from congestion to the sender, so every wireless
// drop halves the window and may strand the RTO.
func refEndToEndTransfer(s *sim.Simulator, cfg PathConfig, totalBytes int) TransferResult {
	// Model the concatenated path as one link pair whose forward leg has
	// the bottleneck rate and combined delay, with wireless losses.
	fwd := newRefLink(s, minRate(cfg.WiredRate, cfg.WirelessRate), cfg.WiredDelay+cfg.WirelessDelay)
	fwd.Loss = lossFromChannel(cfg.Channel)
	rev := newRefLink(s, minRate(cfg.WiredRate, cfg.WirelessRate), cfg.WiredDelay+cfg.WirelessDelay)

	conn := newRefTCPConn(s, cfg.TCP, fwd, rev)
	var doneAt sim.Time
	conn.OnComplete = func(at sim.Time) { doneAt = at; s.Stop() }
	conn.AddData(totalBytes)
	conn.Close()
	s.Run()

	st := conn.Stats()
	res := TransferResult{
		Strategy:        "end-to-end",
		Bytes:           totalBytes,
		Duration:        doneAt,
		Retransmissions: st.Retransmissions,
		Timeouts:        st.Timeouts,
	}
	refFinishTransfer(&res, cfg, fwd, rev, doneAt, totalBytes)
	return res
}

// refSplitTransfer terminates TCP at the proxy: a clean wired connection feeds
// the proxy buffer, and an independent wireless connection with a short RTT
// drains it to the client. Wireless losses recover locally in milliseconds
// and never disturb the wired sender.
func refSplitTransfer(s *sim.Simulator, cfg PathConfig, totalBytes int) TransferResult {
	wiredFwd := newRefLink(s, cfg.WiredRate, cfg.WiredDelay)
	wiredRev := newRefLink(s, cfg.WiredRate, cfg.WiredDelay)
	wlFwd := newRefLink(s, cfg.WirelessRate, cfg.WirelessDelay)
	wlFwd.Loss = lossFromChannel(cfg.Channel)
	wlRev := newRefLink(s, cfg.WirelessRate, cfg.WirelessDelay)

	wired := newRefTCPConn(s, cfg.TCP, wiredFwd, wiredRev)
	wireless := newRefTCPConn(s, cfg.TCP, wlFwd, wlRev)

	// The proxy relays in-order wired bytes into the wireless connection.
	wired.OnDeliver = func(n int) { wireless.AddData(n) }
	wired.OnComplete = func(sim.Time) { wireless.Close() }

	var doneAt sim.Time
	wireless.OnComplete = func(at sim.Time) { doneAt = at; s.Stop() }

	wired.AddData(totalBytes)
	wired.Close()
	s.Run()

	st := wireless.Stats()
	res := TransferResult{
		Strategy:        "split",
		Bytes:           totalBytes,
		Duration:        doneAt,
		Retransmissions: st.Retransmissions + wired.Stats().Retransmissions,
		Timeouts:        st.Timeouts + wired.Stats().Timeouts,
	}
	refFinishTransfer(&res, cfg, wlFwd, wlRev, doneAt, totalBytes)
	return res
}

// refSnoopTransfer keeps the TCP connection end-to-end but places a snoop
// agent at the base station: wireless losses are repaired by local
// retransmission before the sender's control loop can react, so corruption
// surfaces as delay jitter rather than congestion signals — the "supporting
// links" family of mitigations in the paper's transport survey.
func refSnoopTransfer(s *sim.Simulator, cfg PathConfig, totalBytes int) TransferResult {
	fwd := newRefLink(s, minRate(cfg.WiredRate, cfg.WirelessRate), cfg.WiredDelay+cfg.WirelessDelay)
	fwd.Loss = lossFromChannel(cfg.Channel)
	fwd.Snoop = true
	fwd.RepairDelay = 2*cfg.WirelessDelay + sim.Millisecond
	rev := newRefLink(s, minRate(cfg.WiredRate, cfg.WirelessRate), cfg.WiredDelay+cfg.WirelessDelay)

	conn := newRefTCPConn(s, cfg.TCP, fwd, rev)
	var doneAt sim.Time
	conn.OnComplete = func(at sim.Time) { doneAt = at; s.Stop() }
	conn.AddData(totalBytes)
	conn.Close()
	s.Run()

	st := conn.Stats()
	res := TransferResult{
		Strategy:        "snoop",
		Bytes:           totalBytes,
		Duration:        doneAt,
		Retransmissions: st.Retransmissions + fwd.Repairs,
		Timeouts:        st.Timeouts,
	}
	refFinishTransfer(&res, cfg, fwd, rev, doneAt, totalBytes)
	return res
}

// refUDPStream sends count datagrams of the given size over the wireless hop
// with no recovery: the baseline "standard UDP" behaviour.
func refUDPStream(s *sim.Simulator, cfg PathConfig, count, bytes int, interval sim.Time) UDPStreamResult {
	wl := newRefLink(s, cfg.WirelessRate, cfg.WirelessDelay)
	wl.Loss = lossFromChannel(cfg.Channel)
	delivered := 0
	for i := 0; i < count; i++ {
		s.At(sim.Time(i)*interval, func() {
			wl.SendDatagram(bytes, func() { delivered++ })
		})
	}
	s.RunUntil(sim.Time(count)*interval + sim.Second)
	res := UDPStreamResult{Sent: count, Delivered: delivered}
	if count > 0 {
		res.LossRate = 1 - float64(delivered)/float64(count)
	}
	return res
}

func refFinishTransfer(res *TransferResult, cfg PathConfig, wirelessFwd, ackLink *refLink, doneAt sim.Time, totalBytes int) {
	if doneAt > 0 {
		res.GoodputBps = float64(totalBytes*8) / doneAt.Seconds()
		res.ClientEnergyJ = refClientEnergy(cfg, wirelessFwd, ackLink, doneAt)
		res.EnergyPerByteJ = res.ClientEnergyJ / float64(totalBytes)
	}
}
