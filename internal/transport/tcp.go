package transport

import (
	"fmt"

	"repro/internal/sim"
)

// TCPConfig tunes the reduced TCP implementation.
type TCPConfig struct {
	MSS        int
	InitialRTO sim.Time
	MinRTO     sim.Time
	MaxCwnd    int // bytes; models the receive window
}

// DefaultTCPConfig returns conventional values scaled for simulation.
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{
		MSS:        1460,
		InitialRTO: 300 * sim.Millisecond,
		MinRTO:     60 * sim.Millisecond,
		MaxCwnd:    64 * 1024,
	}
}

// TCPStats reports a connection's behaviour.
type TCPStats struct {
	Segments        int
	Retransmissions int
	FastRetransmits int
	Timeouts        int
	AcksReceived    int
	Done            bool
	FinishedAt      sim.Time
}

// TCPConn is a one-directional reduced TCP connection: a sender pushing a
// byte stream over a forward link, with ACKs returning on a reverse link.
// The receiver side lives inside the same object (it has no independent
// behaviour beyond cumulative ACKs and out-of-order buffering).
type TCPConn struct {
	sim *sim.Simulator
	cfg TCPConfig
	fwd *Link
	rev *Link

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

	// onDataArrival and onAck, bound once so no send allocates a closure.
	dataFn, ackFn func(*Packet)

	stats TCPStats

	// OnDeliver is invoked as in-order bytes become available at the
	// receiver (the proxy uses this to feed a chained connection).
	OnDeliver func(n int)
	// OnComplete fires once when every byte of a closed stream is ACKed.
	OnComplete func(at sim.Time)
}

// NewTCPConn creates a connection over the given forward/reverse links.
func NewTCPConn(s *sim.Simulator, cfg TCPConfig, fwd, rev *Link) *TCPConn {
	if cfg.MSS <= 0 || cfg.MaxCwnd < cfg.MSS || cfg.InitialRTO <= 0 || cfg.MinRTO <= 0 {
		panic(fmt.Sprintf("transport: bad TCP config %+v", cfg))
	}
	c := &TCPConn{
		sim: s, cfg: cfg, fwd: fwd, rev: rev,
		cwnd:     float64(cfg.MSS),
		ssthresh: float64(cfg.MaxCwnd),
		rto:      cfg.InitialRTO,
		ooo:      make(map[int]int),
	}
	c.rtoTimer = sim.NewTimer(s, c.onTimeout)
	c.dataFn, c.ackFn = c.onDataArrival, c.onAck
	return c
}

// AddData appends n bytes to the stream (the application write).
func (c *TCPConn) AddData(n int) {
	if c.closed {
		panic("transport: AddData after Close")
	}
	c.total += n
	c.pump()
}

// Close marks the stream complete: when all queued bytes are ACKed the
// connection reports completion.
func (c *TCPConn) Close() {
	c.closed = true
	c.maybeComplete()
}

// Stats returns a copy of the connection counters.
func (c *TCPConn) Stats() TCPStats { return c.stats }

// pump transmits as much as the window and available data allow.
func (c *TCPConn) pump() {
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

func (c *TCPConn) sendSegment(seq, length int) {
	c.stats.Segments++
	p := Packet{Seq: seq, Len: length, SentAt: c.sim.Now()}
	c.fwd.Send(&p, c.dataFn)
	if !c.rtoTimer.Armed() {
		c.rtoTimer.Reset(c.rto)
	}
}

// onDataArrival is the receiver side: in-order delivery, out-of-order
// buffering and cumulative ACK generation.
func (c *TCPConn) onDataArrival(p *Packet) {
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
	ack := Packet{Ack: c.rcvNxt, SentAt: p.SentAt}
	c.rev.Send(&ack, c.ackFn)
}

func (c *TCPConn) advance(n int) {
	c.rcvNxt += n
	if c.OnDeliver != nil && n > 0 {
		c.OnDeliver(n)
	}
}

// onAck is the sender reaction: window advance, RTT estimation, congestion
// control, fast retransmit.
func (c *TCPConn) onAck(p *Packet) {
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

func (c *TCPConn) fastRetransmit() {
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

func (c *TCPConn) onTimeout() {
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
func (c *TCPConn) retransmitHead() {
	length := c.cfg.MSS
	if c.sndUna+length > c.sndNxt {
		length = c.sndNxt - c.sndUna
	}
	if length <= 0 {
		return
	}
	c.stats.Segments++
	p := Packet{Seq: c.sndUna, Len: length, SentAt: c.sim.Now()}
	c.fwd.Send(&p, c.dataFn)
	c.rtoTimer.Reset(c.rto)
}

// updateRTT applies Jacobson/Karels smoothing.
func (c *TCPConn) updateRTT(sample sim.Time) {
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
		// Each product is rounded on its own so no target fuses it into
		// the sum (FMA); amd64 never fuses, so the rounding is the same.
		c.rttvar = float64((1-beta)*c.rttvar) + float64(beta*d)
		c.srtt = float64((1-alpha)*c.srtt) + float64(alpha*r)
	}
	rto := sim.FromSeconds(c.srtt + float64(4*c.rttvar))
	if rto < c.cfg.MinRTO {
		rto = c.cfg.MinRTO
	}
	c.rto = rto
}

func (c *TCPConn) maybeComplete() {
	if c.closed && !c.stats.Done && c.sndUna >= c.total {
		c.stats.Done = true
		c.stats.FinishedAt = c.sim.Now()
		if c.OnComplete != nil {
			c.OnComplete(c.sim.Now())
		}
	}
}
