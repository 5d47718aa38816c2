package transport

import (
	"repro/internal/channel"
	"repro/internal/radio"
	"repro/internal/sim"
)

// power is the state draw, in watts, of the client's card: the 802.11b
// WNIC of radio.WLAN80211b.
var power = radio.WLAN80211b().Power

// PathConfig describes the two-hop server→proxy→client path used by the
// E10 experiment: a fast, clean wired segment and a lossy wireless segment.
// The client's energy is charged at the state powers of the
// radio.WLAN80211b card.
type PathConfig struct {
	WiredRate     float64
	WiredDelay    sim.Time
	WirelessRate  float64
	WirelessDelay sim.Time
	// Channel supplies the wireless loss process.
	Channel *channel.GilbertElliott
	TCP     TCPConfig
}

// DefaultPathConfig returns the E10 topology: 10 Mb/s / 20 ms wired,
// 5.8 Mb/s / 2 ms wireless.
func DefaultPathConfig(ch *channel.GilbertElliott) PathConfig {
	return PathConfig{
		WiredRate:     10e6,
		WiredDelay:    20 * sim.Millisecond,
		WirelessRate:  5.8e6,
		WirelessDelay: 2 * sim.Millisecond,
		Channel:       ch,
		TCP:           DefaultTCPConfig(),
	}
}

// TransferResult reports an end-to-end or split transfer.
type TransferResult struct {
	Strategy        string
	Bytes           int
	Duration        sim.Time
	GoodputBps      float64
	Retransmissions int
	Timeouts        int
	ClientEnergyJ   float64
	EnergyPerByteJ  float64
}

// lossFromChannel adapts the Gilbert–Elliott channel to a link loss process.
func lossFromChannel(ch *channel.GilbertElliott) func(int) bool {
	if ch == nil {
		return nil
	}
	return func(bytes int) bool { return ch.SamplePacketError(bytes) }
}

// clientEnergy estimates the client WNIC energy for a transfer: RX airtime
// for received data, TX airtime for ACKs, idle listening otherwise.
func clientEnergy(wireless *Link, ackLink *Link, dur sim.Time) float64 {
	rx := wireless.BusyTime.Seconds()
	tx := ackLink.BusyTime.Seconds()
	idle := dur.Seconds() - rx - tx
	if idle < 0 {
		idle = 0
	}
	// Each product is rounded on its own so no target fuses it into the sum
	// (FMA); amd64 never fuses, so the rounding is the same there.
	return float64(rx*power[radio.RX]) + float64(tx*power[radio.TX]) + float64(idle*power[radio.Idle])
}

// EndToEndTransfer runs one TCP connection across both hops: the wireless
// loss is indistinguishable from congestion to the sender, so every wireless
// drop halves the window and may strand the RTO.
func EndToEndTransfer(s *sim.Simulator, cfg PathConfig, totalBytes int) TransferResult {
	res, _ := endToEndTransfer(s, cfg, totalBytes)
	return res
}

// endToEndTransfer is EndToEndTransfer, also returning the links it ran
// over so the tests can check their frame accounting. The other transfers
// below have such a twin too.
func endToEndTransfer(s *sim.Simulator, cfg PathConfig, totalBytes int) (TransferResult, []*Link) {
	// Model the concatenated path as one link pair whose forward leg has
	// the bottleneck rate and combined delay, with wireless losses.
	fwd := NewLink(s, min(cfg.WiredRate, cfg.WirelessRate), cfg.WiredDelay+cfg.WirelessDelay)
	fwd.Loss = lossFromChannel(cfg.Channel)
	rev := NewLink(s, min(cfg.WiredRate, cfg.WirelessRate), cfg.WiredDelay+cfg.WirelessDelay)

	conn := NewTCPConn(s, cfg.TCP, fwd, rev)
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
	finishTransfer(&res, cfg, fwd, rev, doneAt, totalBytes)
	return res, []*Link{fwd, rev}
}

// SplitTransfer terminates TCP at the proxy: a clean wired connection feeds
// the proxy buffer, and an independent wireless connection with a short RTT
// drains it to the client. Wireless losses recover locally in milliseconds
// and never disturb the wired sender.
func SplitTransfer(s *sim.Simulator, cfg PathConfig, totalBytes int) TransferResult {
	res, _ := splitTransfer(s, cfg, totalBytes)
	return res
}

func splitTransfer(s *sim.Simulator, cfg PathConfig, totalBytes int) (TransferResult, []*Link) {
	wiredFwd := NewLink(s, cfg.WiredRate, cfg.WiredDelay)
	wiredRev := NewLink(s, cfg.WiredRate, cfg.WiredDelay)
	wlFwd := NewLink(s, cfg.WirelessRate, cfg.WirelessDelay)
	wlFwd.Loss = lossFromChannel(cfg.Channel)
	wlRev := NewLink(s, cfg.WirelessRate, cfg.WirelessDelay)

	wired := NewTCPConn(s, cfg.TCP, wiredFwd, wiredRev)
	wireless := NewTCPConn(s, cfg.TCP, wlFwd, wlRev)

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
	finishTransfer(&res, cfg, wlFwd, wlRev, doneAt, totalBytes)
	return res, []*Link{wiredFwd, wiredRev, wlFwd, wlRev}
}

// SnoopTransfer keeps the TCP connection end-to-end but places a snoop
// agent at the base station: wireless losses are repaired by local
// retransmission before the sender's control loop can react, so corruption
// surfaces as delay jitter rather than congestion signals — the "supporting
// links" family of mitigations in the paper's transport survey.
func SnoopTransfer(s *sim.Simulator, cfg PathConfig, totalBytes int) TransferResult {
	res, _ := snoopTransfer(s, cfg, totalBytes)
	return res
}

func snoopTransfer(s *sim.Simulator, cfg PathConfig, totalBytes int) (TransferResult, []*Link) {
	fwd := NewLink(s, min(cfg.WiredRate, cfg.WirelessRate), cfg.WiredDelay+cfg.WirelessDelay)
	fwd.Loss = lossFromChannel(cfg.Channel)
	fwd.Snoop = true
	fwd.RepairDelay = 2*cfg.WirelessDelay + sim.Millisecond
	rev := NewLink(s, min(cfg.WiredRate, cfg.WirelessRate), cfg.WiredDelay+cfg.WirelessDelay)

	conn := NewTCPConn(s, cfg.TCP, fwd, rev)
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
	finishTransfer(&res, cfg, fwd, rev, doneAt, totalBytes)
	return res, []*Link{fwd, rev}
}

// UDPStreamResult reports a datagram streaming run.
type UDPStreamResult struct {
	Sent      int
	Delivered int
	LossRate  float64
}

// UDPStream sends count datagrams of the given size over the wireless hop
// with no recovery: the baseline "standard UDP" behaviour.
func UDPStream(s *sim.Simulator, cfg PathConfig, count, bytes int, interval sim.Time) UDPStreamResult {
	res, _ := udpStream(s, cfg, count, bytes, interval)
	return res
}

func udpStream(s *sim.Simulator, cfg PathConfig, count, bytes int, interval sim.Time) (UDPStreamResult, *Link) {
	wl := NewLink(s, cfg.WirelessRate, cfg.WirelessDelay)
	wl.Loss = lossFromChannel(cfg.Channel)
	// One send is pending at a time and queues the next. A delivery only
	// counts, so its order against a send due at the same instant does not
	// matter. A live channel's state flip due at a send's exact microsecond
	// runs first if it was queued before that send; E10's channel is frozen
	// and never flips.
	delivered, sent := 0, 0
	countDelivery := func() { delivered++ }
	var send func()
	send = func() {
		wl.SendDatagram(bytes, countDelivery)
		if sent++; sent < count {
			s.At(sim.Time(sent)*interval, send)
		}
	}
	if count > 0 {
		s.At(0, send)
	}
	s.RunUntil(sim.Time(count)*interval + sim.Second)
	res := UDPStreamResult{Sent: count, Delivered: delivered}
	if count > 0 {
		res.LossRate = 1 - float64(delivered)/float64(count)
	}
	return res, wl
}

func finishTransfer(res *TransferResult, cfg PathConfig, wirelessFwd, ackLink *Link, doneAt sim.Time, totalBytes int) {
	if doneAt > 0 {
		res.GoodputBps = float64(totalBytes*8) / doneAt.Seconds()
		res.ClientEnergyJ = clientEnergy(wirelessFwd, ackLink, doneAt)
		res.EnergyPerByteJ = res.ClientEnergyJ / float64(totalBytes)
	}
}
