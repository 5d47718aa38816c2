package psm

import (
	"repro/internal/frame"
	"repro/internal/mac/dcf"
	"repro/internal/radio"
	"repro/internal/sim"
)

// ClientStats counts station-side PSM activity.
type ClientStats struct {
	BeaconsHeard int
	PollsSent    int
	FramesRecv   int
	BytesRecv    int
}

// Client is a power-saving 802.11 station. Its lifecycle is a loop:
// doze → wake shortly before TBTT → hear beacon → if the TIM indicates
// buffered traffic, PS-Poll it out frame by frame (the More bit chains
// retrievals) → doze again. Three Timers drive it: the pre-TBTT wakeup,
// the doze retry while an owed ACK keeps the station busy, and the
// retrieve timeout.
type Client struct {
	sim *sim.Simulator
	cfg Config
	sta *dcf.Station
	id  int

	retrieving bool
	wake       *sim.Timer // the pre-TBTT wakeup
	dozeRetry  *sim.Timer // the next doze attempt while the station is busy
	timeout    *sim.Timer // the retrieve timeout
	seq        int
	stats      ClientStats

	// wakeTarget is the TBTT the pending pre-TBTT wakeup serves; the wake
	// timer holds at most one wakeup, so one field suffices.
	wakeTarget sim.Time

	// OnData is invoked for every retrieved data frame. f is valid only for
	// the duration of the call.
	OnData func(f *frame.Frame)
}

// NewClient creates a PS-mode station and schedules its first beacon wakeup.
// The station starts awake (radio Idle) and dozes immediately.
func NewClient(s *sim.Simulator, m *dcf.Medium, dev *radio.Device, ap *AP, id int, cfg Config) *Client {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Client{sim: s, cfg: cfg, id: id}
	c.sta = dcf.NewStation(id, m, dev)
	c.sta.OnReceive = c.onReceive
	c.wake = sim.NewTimer(s, c.onWake)
	c.dozeRetry = sim.NewTimer(s, c.attemptDoze)
	c.timeout = sim.NewTimer(s, c.onRetrieveTimeout)
	ap.SetPSMode(id, true)
	c.sta.Doze()
	c.scheduleWake()
	return c
}

// Station exposes the underlying DCF station.
func (c *Client) Station() *dcf.Station { return c.sta }

// nextTBTT returns the next target beacon transmission time this client
// attends, honoring its listen interval.
func (c *Client) nextTBTT() sim.Time {
	interval := c.cfg.BeaconInterval * sim.Time(c.cfg.ListenInterval)
	now := c.sim.Now()
	k := now/interval + 1
	return k * interval
}

func (c *Client) scheduleWake() {
	target := c.nextTBTT()
	wakeAt := target - c.cfg.WakeLead
	if wakeAt <= c.sim.Now() {
		wakeAt = c.sim.Now()
	}
	c.wakeTarget = target
	c.wake.ResetAt(wakeAt)
}

func (c *Client) onWake() {
	if !c.sta.Awake() {
		c.sta.WakeUp(nil)
	}
	// If no beacon shows up shortly after TBTT (lost to collision or
	// corruption), give up and doze until the next one.
	c.timeout.ResetAt(c.wakeTarget + c.cfg.RetrieveTimeout)
}

func (c *Client) onRetrieveTimeout() {
	c.retrieving = false
	c.dozeUntilNext()
}

// dozeUntilNext ends the current beacon cycle: schedule the next wakeup and
// doze as soon as the station is quiescent (any owed ACK must go out first).
func (c *Client) dozeUntilNext() {
	c.scheduleWake()
	c.attemptDoze()
}

func (c *Client) attemptDoze() {
	// Not worth dozing if the next wakeup is imminent.
	nextWake := c.nextTBTT() - c.cfg.WakeLead
	if c.sim.Now() >= nextWake-2*sim.Millisecond {
		return
	}
	if c.sta.CanDoze() {
		c.sta.Doze()
		return
	}
	c.dozeRetry.Reset(sim.Millisecond)
}

func (c *Client) onReceive(f *frame.Frame) {
	switch f.Kind {
	case frame.Beacon:
		c.stats.BeaconsHeard++
		c.timeout.Stop()
		if f.TIM != nil && f.TIM.Indicated(c.id) {
			c.retrieving = true
			c.poll()
		} else {
			c.dozeUntilNext()
		}
	case frame.Data:
		if !c.retrieving || f.To != c.id {
			return
		}
		c.stats.FramesRecv++
		c.stats.BytesRecv += f.Payload
		if c.OnData != nil {
			c.OnData(f)
		}
		c.timeout.Stop()
		if f.More {
			c.poll()
		} else {
			c.retrieving = false
			c.dozeUntilNext()
		}
	}
}

func (c *Client) poll() {
	c.stats.PollsSent++
	c.seq++
	p := frame.NewPSPoll(c.id, c.seq)
	c.sta.Enqueue(&p)
	c.timeout.Reset(c.cfg.RetrieveTimeout)
}
