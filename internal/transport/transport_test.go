package transport

import (
	"math"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/sim"
)

func cleanChannel(s *sim.Simulator) *channel.GilbertElliott {
	ch := channel.NewGilbertElliott(s, channel.GEParams{
		MeanGood: sim.Hour, MeanBad: sim.Second, BERGood: 0, BERBad: 1e-3})
	ch.Freeze()
	return ch
}

func lossyChannel(s *sim.Simulator, ber float64) *channel.GilbertElliott {
	ch := channel.NewGilbertElliott(s, channel.GEParams{
		MeanGood: sim.Hour, MeanBad: sim.Second, BERGood: ber, BERBad: 1e-2})
	ch.Freeze()
	return ch
}

func TestLinkSerializes(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, 1e6, sim.Millisecond) // 1 Mb/s, 1 ms
	var arrivals []sim.Time
	// Two 1040-wire-byte packets: 8.32 ms airtime each.
	for i := 0; i < 2; i++ {
		l.Send(&Packet{Seq: i, Len: 1000}, func(*Packet) {
			arrivals = append(arrivals, s.Now())
		})
	}
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(arrivals))
	}
	gap := arrivals[1] - arrivals[0]
	want := sim.FromSeconds(1040 * 8 / 1e6)
	if gap != want {
		t.Errorf("serialization gap = %v, want %v", gap, want)
	}
}

func TestLinkLoss(t *testing.T) {
	s := sim.New(2)
	l := NewLink(s, 1e6, 0)
	l.Loss = func(int) bool { return true }
	delivered := false
	l.Send(&Packet{Len: 100}, func(*Packet) { delivered = true })
	s.Run()
	if delivered {
		t.Error("lost packet delivered")
	}
	if l.Lost != 1 {
		t.Errorf("Lost = %d, want 1", l.Lost)
	}
}

func TestTCPTransfersCleanly(t *testing.T) {
	s := sim.New(3)
	fwd := NewLink(s, 10e6, 5*sim.Millisecond)
	rev := NewLink(s, 10e6, 5*sim.Millisecond)
	c := NewTCPConn(s, DefaultTCPConfig(), fwd, rev)
	done := false
	c.OnComplete = func(sim.Time) { done = true; s.Stop() }
	c.AddData(500_000)
	c.Close()
	s.Run()
	if !done {
		t.Fatal("transfer never completed")
	}
	if c.Delivered() != 500_000 {
		t.Errorf("delivered %d, want 500000", c.Delivered())
	}
	st := c.Stats()
	if st.Retransmissions != 0 {
		t.Errorf("retransmissions = %d on clean path", st.Retransmissions)
	}
}

func TestTCPSlowStartGrowsWindow(t *testing.T) {
	s := sim.New(4)
	fwd := NewLink(s, 10e6, 10*sim.Millisecond)
	rev := NewLink(s, 10e6, 10*sim.Millisecond)
	cfg := DefaultTCPConfig()
	c := NewTCPConn(s, cfg, fwd, rev)
	start := c.Cwnd()
	c.OnComplete = func(sim.Time) { s.Stop() }
	c.AddData(200_000)
	c.Close()
	s.Run()
	if c.Cwnd() <= start {
		t.Errorf("cwnd did not grow: %v -> %v", start, c.Cwnd())
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	s := sim.New(5)
	fwd := NewLink(s, 10e6, 5*sim.Millisecond)
	rev := NewLink(s, 10e6, 5*sim.Millisecond)
	// Deterministic loss of every 20th data packet.
	n := 0
	fwd.Loss = func(int) bool {
		n++
		return n%20 == 0
	}
	c := NewTCPConn(s, DefaultTCPConfig(), fwd, rev)
	done := false
	c.OnComplete = func(sim.Time) { done = true; s.Stop() }
	c.AddData(1_000_000)
	c.Close()
	s.Run()
	if !done {
		t.Fatal("lossy transfer never completed")
	}
	st := c.Stats()
	if st.Retransmissions == 0 {
		t.Error("no retransmissions despite forced loss")
	}
	if c.Delivered() != 1_000_000 {
		t.Errorf("delivered %d, want all", c.Delivered())
	}
}

func TestTCPTimeoutPath(t *testing.T) {
	s := sim.New(6)
	fwd := NewLink(s, 10e6, 5*sim.Millisecond)
	rev := NewLink(s, 10e6, 5*sim.Millisecond)
	// Lose a long run of packets to defeat fast retransmit.
	n := 0
	fwd.Loss = func(int) bool {
		n++
		return n >= 3 && n <= 9
	}
	c := NewTCPConn(s, DefaultTCPConfig(), fwd, rev)
	done := false
	c.OnComplete = func(sim.Time) { done = true; s.Stop() }
	c.AddData(50_000)
	c.Close()
	s.Run()
	if !done {
		t.Fatal("transfer stalled")
	}
	if c.Stats().Timeouts == 0 {
		t.Error("expected at least one RTO with a loss burst")
	}
}

func TestEndToEndVsSplitOnLossyWireless(t *testing.T) {
	const bytes = 2_000_000
	run := func(split bool) TransferResult {
		s := sim.New(7)
		ch := lossyChannel(s, 2e-6) // PER ≈ 2.4% on 1500B frames
		cfg := DefaultPathConfig(ch)
		if split {
			return SplitTransfer(s, cfg, bytes)
		}
		return EndToEndTransfer(s, cfg, bytes)
	}
	e2e := run(false)
	split := run(true)
	if split.GoodputBps <= e2e.GoodputBps {
		t.Errorf("split goodput %.0f should beat end-to-end %.0f under wireless loss",
			split.GoodputBps, e2e.GoodputBps)
	}
	if split.EnergyPerByteJ >= e2e.EnergyPerByteJ {
		t.Errorf("split energy/byte %.3e should beat end-to-end %.3e",
			split.EnergyPerByteJ, e2e.EnergyPerByteJ)
	}
}

func TestSplitMatchesEndToEndOnCleanPath(t *testing.T) {
	const bytes = 1_000_000
	run := func(split bool) TransferResult {
		s := sim.New(8)
		ch := cleanChannel(s)
		cfg := DefaultPathConfig(ch)
		if split {
			return SplitTransfer(s, cfg, bytes)
		}
		return EndToEndTransfer(s, cfg, bytes)
	}
	e2e := run(false)
	split := run(true)
	// On a clean path the two should be in the same ballpark (split may
	// even win slightly from pipelining the two hops).
	ratio := split.Duration.Seconds() / e2e.Duration.Seconds()
	if ratio > 1.4 {
		t.Errorf("split %.3fs much slower than e2e %.3fs on clean path",
			split.Duration.Seconds(), e2e.Duration.Seconds())
	}
}

func TestUDPStreamLoss(t *testing.T) {
	s := sim.New(9)
	ch := lossyChannel(s, 5e-6)
	cfg := DefaultPathConfig(ch)
	res := UDPStream(s, cfg, 2000, 1000, 5*sim.Millisecond)
	if res.Delivered == res.Sent {
		t.Error("UDP lost nothing on a lossy channel")
	}
	if res.Delivered == 0 {
		t.Error("UDP delivered nothing")
	}
	if res.LossRate <= 0 || res.LossRate > 0.2 {
		t.Errorf("loss rate = %.4f, want small but positive", res.LossRate)
	}
}

func TestUDPCleanDeliversAll(t *testing.T) {
	s := sim.New(10)
	ch := cleanChannel(s)
	cfg := DefaultPathConfig(ch)
	res := UDPStream(s, cfg, 500, 1000, sim.Millisecond)
	if res.Delivered != 500 {
		t.Errorf("delivered %d of 500 on clean channel", res.Delivered)
	}
}

func TestAddDataAfterClosePanics(t *testing.T) {
	s := sim.New(11)
	c := NewTCPConn(s, DefaultTCPConfig(), NewLink(s, 1e6, 0), NewLink(s, 1e6, 0))
	c.Close()
	defer func() {
		if recover() == nil {
			t.Error("AddData after Close accepted")
		}
	}()
	c.AddData(10)
}

// expectPanic runs f and requires a panic whose message starts with
// "transport: " (not a kernel panic from a bad value reaching the
// simulator).
func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "transport: ") {
			t.Errorf("%s: panic %v, want a transport: message", name, r)
		}
	}()
	f()
}

func TestConstructorsRejectEveryBadField(t *testing.T) {
	s := sim.New(1)
	for name, rate := range map[string]float64{
		"rate NaN": math.NaN(), "rate +Inf": math.Inf(1), "rate -Inf": math.Inf(-1),
		"rate zero": 0, "rate negative": -1e6,
	} {
		expectPanic(t, name, func() { NewLink(s, rate, sim.Millisecond) })
	}
	expectPanic(t, "delay negative", func() { NewLink(s, 1e6, -sim.Millisecond) })
	// The one-link topologies take the slower of the two rates; a NaN
	// wired rate must reach NewLink, not lose to the wireless one.
	nanWired := DefaultPathConfig(nil)
	nanWired.WiredRate = math.NaN()
	expectPanic(t, "end-to-end wired rate NaN", func() { EndToEndTransfer(s, nanWired, 1000) })
	expectPanic(t, "snoop wired rate NaN", func() { SnoopTransfer(s, nanWired, 1000) })

	for name, bad := range map[string]func(*TCPConfig){
		"MSS zero":            func(c *TCPConfig) { c.MSS = 0 },
		"MaxCwnd below MSS":   func(c *TCPConfig) { c.MaxCwnd = c.MSS - 1 },
		"InitialRTO zero":     func(c *TCPConfig) { c.InitialRTO = 0 },
		"InitialRTO negative": func(c *TCPConfig) { c.InitialRTO = -sim.Second },
		"MinRTO zero":         func(c *TCPConfig) { c.MinRTO = 0 },
		"MinRTO negative":     func(c *TCPConfig) { c.MinRTO = -sim.Millisecond },
	} {
		cfg := DefaultTCPConfig()
		bad(&cfg)
		expectPanic(t, name, func() { NewTCPConn(s, cfg, NewLink(s, 1e6, 0), NewLink(s, 1e6, 0)) })
	}
}

// TestTransferMarginalByteAllocatesNothing pins the pooled event path: on
// a lossless path, once the window has opened, moving twice the bytes
// costs no extra allocation.
func TestTransferMarginalByteAllocatesNothing(t *testing.T) {
	for name, transfer := range map[string]func(*sim.Simulator, PathConfig, int) TransferResult{
		"end-to-end": EndToEndTransfer,
		"split":      SplitTransfer,
	} {
		allocs := func(bytes int) float64 {
			return testing.AllocsPerRun(10, func() {
				s := sim.New(1)
				if r := transfer(s, DefaultPathConfig(nil), bytes); r.Duration <= 0 {
					t.Fatalf("%s: transfer of %d bytes did not finish", name, bytes)
				}
			})
		}
		if one, two := allocs(500_000), allocs(1_000_000); one != two {
			t.Errorf("%s: %v allocs for 500 kB, %v for 1 MB", name, one, two)
		}
	}
}

// Cwnd returns the current congestion window in bytes.
func (c *TCPConn) Cwnd() float64 { return c.cwnd }

// Delivered returns the bytes delivered in order at the receiver.
func (c *TCPConn) Delivered() int { return c.rcvNxt }
