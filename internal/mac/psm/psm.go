// Package psm implements the 802.11 power-save mode on top of the DCF
// substrate: the access point buffers traffic for dozing stations and
// advertises it in the beacon's traffic indication map (TIM); stations wake
// for beacons, retrieve buffered frames with PS-Poll, and doze whenever the
// TIM holds nothing for them — exactly the mechanism the paper summarizes as
// "802.11 power saving standard has a device entering doze mode whenever
// there is no traffic for it in the traffic indication map sent by the
// access point".
package psm

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/mac/dcf"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Config holds PSM parameters.
type Config struct {
	// BeaconInterval is the TBTT spacing (default 100 ms).
	BeaconInterval sim.Time
	// DTIMPeriod is the DTIM interval in beacons.
	DTIMPeriod int
	// ListenInterval is how many beacon intervals a station may skip
	// between wakeups (1 = wake for every beacon).
	ListenInterval int
	// WakeLead is how long before TBTT a station starts its doze→idle
	// transition so it is listening when the beacon airs.
	WakeLead sim.Time
	// BufferLimit caps per-station AP-side buffering; overflow drops.
	BufferLimit int
	// RetrieveTimeout bounds how long a station stays awake waiting for a
	// poll response before giving up until the next beacon.
	RetrieveTimeout sim.Time
}

// DefaultConfig returns standard-profile PSM parameters.
func DefaultConfig() Config {
	return Config{
		BeaconInterval:  100 * sim.Millisecond,
		DTIMPeriod:      3,
		ListenInterval:  1,
		WakeLead:        3 * sim.Millisecond,
		BufferLimit:     64,
		RetrieveTimeout: 40 * sim.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BeaconInterval <= 0 || c.DTIMPeriod <= 0 || c.ListenInterval <= 0 {
		return fmt.Errorf("psm: intervals must be positive")
	}
	if c.WakeLead <= 0 || c.WakeLead >= c.BeaconInterval {
		return fmt.Errorf("psm: wake lead must be in (0, beacon interval)")
	}
	if c.BufferLimit <= 0 {
		return fmt.Errorf("psm: buffer limit must be positive")
	}
	if c.RetrieveTimeout <= 0 {
		// Zero makes a client give up on every beacon before it airs, and
		// a negative value re-arms the timeout at one instant forever.
		return fmt.Errorf("psm: retrieve timeout must be positive")
	}
	return nil
}

// APStats counts access-point-side PSM activity.
type APStats struct {
	Beacons        int
	Buffered       int
	BufferDrops    int
	PollsServed    int
	DirectSends    int // frames sent to CAM (non-PS) stations
	BroadcastsSent int
}

// AP is a power-save-aware access point. Downlink traffic for stations in PS
// mode is buffered and advertised via the TIM; PS-Polls release it one frame
// at a time with the More bit chaining further retrievals.
type AP struct {
	sim *sim.Simulator
	cfg Config
	sta *dcf.Station

	psMode   map[int]bool
	psOrder  []int // stations in first SetPSMode order: the TIM walk order
	buffers  map[int][]*frame.Frame
	bcastBuf []*frame.Frame
	inFlight map[int]bool
	beaconN  int
	seq      int
	stats    APStats
}

// NewAP creates the access point on the given medium and starts beaconing.
func NewAP(s *sim.Simulator, m *dcf.Medium, dev *radio.Device, cfg Config) *AP {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ap := &AP{
		sim:      s,
		cfg:      cfg,
		psMode:   make(map[int]bool),
		buffers:  make(map[int][]*frame.Frame),
		inFlight: make(map[int]bool),
	}
	ap.sta = dcf.NewStation(frame.AP, m, dev)
	ap.sta.OnReceive = ap.onReceive
	ap.sta.OnSent = ap.onSent
	sim.NewTicker(s, cfg.BeaconInterval, ap.sendBeacon)
	return ap
}

// Station exposes the AP's underlying DCF station (for stats and tests).
func (ap *AP) Station() *dcf.Station { return ap.sta }

// Stats returns a copy of the AP counters.
func (ap *AP) Stats() APStats { return ap.stats }

// SetPSMode marks a station as power-saving (true) or CAM (false).
// In a real network the station signals this with the power-management bit;
// here registration is explicit.
func (ap *AP) SetPSMode(sta int, on bool) {
	if _, seen := ap.psMode[sta]; !seen {
		ap.psOrder = append(ap.psOrder, sta)
	}
	ap.psMode[sta] = on
}

// Buffered returns the number of frames currently buffered for a station.
func (ap *AP) Buffered(sta int) int { return len(ap.buffers[sta]) }

// Deliver hands the AP a downlink payload for a station. PS stations get it
// buffered for TIM-announced retrieval; CAM stations get it sent directly.
func (ap *AP) Deliver(to int, payload int) {
	ap.seq++
	f := frame.NewData(frame.AP, to, ap.seq, payload)
	if !ap.psMode[to] {
		ap.stats.DirectSends++
		ap.sta.Enqueue(f)
		return
	}
	if len(ap.buffers[to]) >= ap.cfg.BufferLimit {
		ap.stats.BufferDrops++
		return
	}
	ap.buffers[to] = append(ap.buffers[to], f)
	ap.stats.Buffered++
}

// DeliverBroadcast queues a broadcast payload; it airs right after the next
// DTIM beacon, when every power-saving station is awake to hear it.
func (ap *AP) DeliverBroadcast(payload int) {
	ap.seq++
	f := frame.NewData(frame.AP, frame.Broadcast, ap.seq, payload)
	ap.bcastBuf = append(ap.bcastBuf, f)
}

func (ap *AP) sendBeacon() {
	tim := frame.NewTIM(ap.cfg.DTIMPeriod)
	tim.DTIMCount = ap.beaconN % ap.cfg.DTIMPeriod
	tim.Broadcast = len(ap.bcastBuf) > 0
	// Only registered stations are ever buffered for (Deliver checks
	// psMode), so walking them in registration order covers every buffer
	// without ranging over a map.
	for _, sta := range ap.psOrder {
		if len(ap.buffers[sta]) > 0 {
			tim.Set(sta)
		}
	}
	isDTIM := tim.DTIMCount == 0
	ap.beaconN++
	ap.stats.Beacons++
	ap.sta.Enqueue(frame.NewBeacon(tim))
	// Broadcast traffic follows DTIM beacons while all PS stations listen.
	if isDTIM {
		for _, f := range ap.bcastBuf {
			ap.stats.BroadcastsSent++
			ap.sta.Enqueue(f)
		}
		ap.bcastBuf = nil
	}
}

func (ap *AP) onReceive(f *frame.Frame) {
	if f.Kind != frame.PSPoll {
		return
	}
	ap.servePoll(f.From)
}

// servePoll releases the head buffered frame for a station in response to a
// PS-Poll, setting the More bit when further frames wait.
func (ap *AP) servePoll(sta int) {
	buf := ap.buffers[sta]
	if len(buf) == 0 || ap.inFlight[sta] {
		return
	}
	head := buf[0]
	head.More = len(buf) > 1
	ap.inFlight[sta] = true
	ap.stats.PollsServed++
	ap.sta.Enqueue(head)
}

// onSent retires a successfully delivered buffered frame, or re-queues the
// head for the next poll on failure.
func (ap *AP) onSent(f *frame.Frame, ok bool) {
	if f.Kind != frame.Data || !ap.psMode[f.To] {
		return
	}
	ap.inFlight[f.To] = false
	if ok {
		buf := ap.buffers[f.To]
		if len(buf) > 0 && buf[0] == f {
			// Shift in place so the buffer keeps its capacity for Deliver.
			n := copy(buf, buf[1:])
			buf[n] = nil
			ap.buffers[f.To] = buf[:n]
		}
	}
	// On failure the frame stays at the head; the station's TIM bit remains
	// set and the next beacon/poll retries it.
}
