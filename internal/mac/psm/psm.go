// Package psm implements the 802.11 power-save mode on top of the DCF
// substrate: the access point buffers traffic for dozing stations and
// advertises it in the beacon's traffic indication map (TIM); stations wake
// for beacons, retrieve buffered frames with PS-Poll, and doze whenever the
// TIM holds nothing for them — exactly the mechanism the paper summarizes as
// "802.11 power saving standard has a device entering doze mode whenever
// there is no traffic for it in the traffic indication map sent by the
// access point".
//
// Frames follow dcf's lifetime rule: the AP buffers frames by value and
// retires a buffered head by its sequence number, and the *frame.Frame a
// Client's OnData receives is valid only for the duration of the call.
// The AP reuses a pool of TIMs, taking a beacon's TIM back once the beacon
// has been sent.
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
		ListenInterval:  1,
		WakeLead:        3 * sim.Millisecond,
		BufferLimit:     64,
		RetrieveTimeout: 40 * sim.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BeaconInterval <= 0 || c.ListenInterval <= 0 {
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
	Beacons     int
	Buffered    int
	BufferDrops int
	PollsServed int
	DirectSends int // frames sent to CAM (non-PS) stations
}

// AP is a power-save-aware access point. Downlink traffic for stations in PS
// mode is buffered and advertised via the TIM; PS-Polls release it one frame
// at a time with the More bit chaining further retrievals.
type AP struct {
	cfg Config
	sta *dcf.Station

	stations map[int]*apStation
	psOrder  []*apStation // in first SetPSMode order: the TIM walk order
	// freeTIMs holds TIMs whose beacons have been sent. A beacon can wait
	// in the AP's queue past the next TBTT, so one TIM per AP is not
	// enough.
	freeTIMs []*frame.TIM
	seq      int
	stats    APStats
}

// apStation is the AP's state for one station registered with SetPSMode.
type apStation struct {
	id       int
	ps       bool          // power-saving: downlink is buffered
	inFlight bool          // the buffer head is in the AP's queue or on the air
	buf      []frame.Frame // buffered downlink, oldest first
}

// NewAP creates the access point on the given medium and starts beaconing.
func NewAP(s *sim.Simulator, m *dcf.Medium, dev *radio.Device, cfg Config) *AP {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ap := &AP{cfg: cfg, stations: make(map[int]*apStation)}
	ap.sta = dcf.NewStation(frame.AP, m, dev)
	ap.sta.OnReceive = ap.onReceive
	ap.sta.OnSent = ap.onSent
	sim.NewTicker(s, cfg.BeaconInterval, ap.sendBeacon)
	return ap
}

// SetPSMode marks a station as power-saving (true) or CAM (false).
// In a real network the station signals this with the power-management bit;
// here registration is explicit.
func (ap *AP) SetPSMode(sta int, on bool) {
	st := ap.stations[sta]
	if st == nil {
		st = &apStation{id: sta}
		ap.stations[sta] = st
		ap.psOrder = append(ap.psOrder, st)
	}
	st.ps = on
}

// Deliver hands the AP a downlink payload for a station. PS stations get it
// buffered for TIM-announced retrieval; CAM stations get it sent directly.
func (ap *AP) Deliver(to int, payload int) {
	ap.seq++
	f := frame.NewData(frame.AP, to, ap.seq, payload)
	st := ap.stations[to]
	if st == nil || !st.ps {
		ap.stats.DirectSends++
		ap.sta.Enqueue(f)
		return
	}
	if len(st.buf) >= ap.cfg.BufferLimit {
		ap.stats.BufferDrops++
		return
	}
	st.buf = append(st.buf, *f)
	ap.stats.Buffered++
}

func (ap *AP) sendBeacon() {
	var tim *frame.TIM
	if n := len(ap.freeTIMs); n > 0 {
		tim = ap.freeTIMs[n-1]
		ap.freeTIMs = ap.freeTIMs[:n-1]
		tim.Reset()
	} else {
		tim = frame.NewTIM()
	}
	// Only registered stations are ever buffered for (Deliver checks
	// their PS mode), so walking them in registration order covers every
	// buffer without ranging over a map.
	for _, st := range ap.psOrder {
		if len(st.buf) > 0 {
			tim.Set(st.id)
		}
	}
	ap.stats.Beacons++
	beacon := frame.NewBeacon(tim)
	ap.sta.Enqueue(&beacon)
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
	st := ap.stations[sta]
	if st == nil || len(st.buf) == 0 || st.inFlight {
		return
	}
	st.buf[0].More = len(st.buf) > 1
	st.inFlight = true
	ap.stats.PollsServed++
	ap.sta.Enqueue(&st.buf[0])
}

// onSent takes back a sent beacon's TIM, and retires a successfully
// delivered buffered frame or re-queues the head for the next poll on
// failure. The station queue holds a copy of the head, so the head is
// matched by sequence number: Deliver numbers every frame afresh.
func (ap *AP) onSent(f *frame.Frame, ok bool) {
	if f.Kind == frame.Beacon {
		ap.freeTIMs = append(ap.freeTIMs, f.TIM)
		return
	}
	st := ap.stations[f.To]
	if f.Kind != frame.Data || st == nil || !st.ps {
		return
	}
	st.inFlight = false
	if ok && len(st.buf) > 0 && st.buf[0].Seq == f.Seq {
		// Shift in place so the buffer keeps its capacity for Deliver.
		st.buf = st.buf[:copy(st.buf, st.buf[1:])]
	}
	// On failure the frame stays at the head; the station's TIM bit remains
	// set and the next beacon/poll retries it.
}
