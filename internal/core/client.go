package core

import (
	"fmt"

	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/sim"
)

// ClientSpec describes one mobile entering the Hotspot environment.
type ClientSpec struct {
	ID     int
	Stream qos.StreamSpec
	// HasWLAN/HasBT list the WNICs the mobile carries (the iPAQ 3970 of
	// the paper has both).
	HasWLAN, HasBT bool
}

// DefaultClientSpec returns the paper's client: an iPAQ with both
// interfaces streaming high-quality MP3.
func DefaultClientSpec(id int) ClientSpec {
	return ClientSpec{ID: id, Stream: qos.MP3Stream(), HasWLAN: true, HasBT: true}
}

// Validate checks the spec.
func (c ClientSpec) Validate() error {
	if err := c.Stream.Validate(); err != nil {
		return err
	}
	if !c.HasWLAN && !c.HasBT {
		return fmt.Errorf("core: client %d has no interfaces", c.ID)
	}
	return nil
}

// Client is the client-side resource manager: it owns the WNIC devices and
// the playout buffer, and executes the schedule the server hands it by
// transitioning devices between deep-sleep and active states.
type Client struct {
	spec ClientSpec
	sim  *sim.Simulator

	devices [numIfaces]*radio.Device
	buffer  *qos.PlayoutBuffer

	assigned Iface
	switches int
	received int
	slots    int
	partial  int  // slots that delivered less than demanded
	slotBusy bool // a burst is executing; overlapping slots are skipped

	// Server-side bookkeeping the resource manager keeps per client:
	// nextFill is the end of the earliest slot in flight (MaxTime when none
	// is), lastUrgent the time of the last watchdog top-up, valid only once
	// urgentSeen is set.
	nextFill   sim.Time
	lastUrgent sim.Time
	urgentSeen bool

	// OnPower, if set, is invoked with the client's combined radio power
	// whenever any device changes state (used by the Figure 1 trace).
	OnPower func(t sim.Time, watts float64)
}

// newClient builds a client with its radios parked in deep states.
func newClient(s *sim.Simulator, spec ClientSpec, initial Iface) *Client {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	c := &Client{spec: spec, sim: s, assigned: initial, nextFill: sim.MaxTime}
	c.buffer = qos.NewPlayoutBuffer(s, spec.Stream)
	mk := func(i Iface) {
		p := profileFor(i)
		// Devices begin in their deep state: the client registered moments
		// ago and is waiting for its first scheduled burst.
		c.devices[i] = radio.NewDeviceInState(s, p, p.DeepState)
		c.devices[i].OnStateChange(func(t sim.Time, _ radio.State) {
			if c.OnPower != nil {
				c.OnPower(t, c.CurrentPower())
			}
		})
	}
	if spec.HasWLAN {
		mk(WLAN)
	}
	if spec.HasBT {
		mk(BT)
	}
	if c.devices[initial] == nil {
		panic(fmt.Sprintf("core: client %d assigned missing iface %v", spec.ID, initial))
	}
	return c
}

// ID returns the client identifier.
func (c *Client) ID() int { return c.spec.ID }

// Spec returns the client's specification.
func (c *Client) Spec() ClientSpec { return c.spec }

// Buffer returns the playout buffer.
func (c *Client) Buffer() *qos.PlayoutBuffer { return c.buffer }

// Assigned returns the current serving interface.
func (c *Client) Assigned() Iface { return c.assigned }

// Switches counts interface reassignments.
func (c *Client) Switches() int { return c.switches }

// Device returns the WNIC for an interface (nil if absent).
func (c *Client) Device(i Iface) *radio.Device { return c.devices[i] }

// Has reports whether the client carries the interface.
func (c *Client) Has(i Iface) bool { return c.devices[i] != nil }

// CurrentPower returns the instantaneous combined radio draw in watts.
func (c *Client) CurrentPower() float64 {
	var w float64
	for _, d := range c.devices {
		if d != nil {
			w += d.Profile().Power[d.State()]
		}
	}
	return w
}

// TotalEnergy returns the combined radio energy in joules.
func (c *Client) TotalEnergy() float64 {
	var j float64
	for _, d := range c.devices {
		if d != nil {
			j += d.Meter().TotalEnergy()
		}
	}
	return j
}

// AveragePower returns combined energy over elapsed time.
func (c *Client) AveragePower() float64 {
	var j, el float64
	for _, d := range c.devices {
		if d != nil {
			j += d.Meter().TotalEnergy()
			if e := d.Meter().Elapsed().Seconds(); e > el {
				el = e
			}
		}
	}
	if el <= 0 {
		return 0
	}
	return j / el
}

// assign moves the client to a new serving interface (takes effect for
// subsequently scheduled slots).
func (c *Client) assign(i Iface) {
	if i == c.assigned {
		return
	}
	if !c.Has(i) {
		panic(fmt.Sprintf("core: client %d lacks %v", c.spec.ID, i))
	}
	c.assigned = i
	c.switches++
}

// wakeLatency returns how long before a slot the client must start waking
// the given interface.
func (c *Client) wakeLatency(i Iface) sim.Time {
	d := c.devices[i]
	return d.Profile().TransitionCost(d.Profile().DeepState, radio.Idle).Latency
}

// executeSlot runs one scheduled burst on the client: wake ahead of the
// slot, receive for the assessed duration, fill the playout buffer, then
// drop back into the deep state. r.assess runs at the slot start and
// returns the actual transfer duration and delivered bytes given the
// channel conditions at that instant; r.finish is invoked with the
// delivered bytes. A client's radio can serve only one burst at a time:
// under overload or emergency preemption the schedule may hand it
// overlapping slots, and the later one is skipped (delivering nothing)
// rather than corrupting the radio state machine.
func (c *Client) executeSlot(r *slotRun) {
	lead := c.wakeLatency(r.slot.Iface)
	wakeAt := r.slot.Start - lead
	if wakeAt < c.sim.Now() {
		wakeAt = c.sim.Now()
	}
	c.sim.At(wakeAt, r.wakeFn)
	c.sim.At(r.slot.Start, r.startFn)
}

// wake brings the slot's radio up ahead of the slot start.
func (r *slotRun) wake() {
	c, dev := r.c, r.c.devices[r.slot.Iface]
	// Wake only from a deep state; anything else means another slot is
	// mid-flight and this one will be skipped at its start.
	if c.slotBusy || dev.Transitioning() {
		return
	}
	if st := dev.State(); st == radio.Sleep || st == radio.Off {
		dev.SetState(radio.Idle, nil)
	}
}

// start begins the burst, or skips the slot if the radio is not ready.
func (r *slotRun) start() {
	c, dev := r.c, r.c.devices[r.slot.Iface]
	if c.slotBusy || dev.State() != radio.Idle || dev.Transitioning() {
		// Radio missed its wake window (overlap or late reassignment):
		// nothing is received this slot.
		c.slots++
		c.partial++
		r.finish(0)
		return
	}
	actualDur, delivered := r.assess()
	r.delivered = delivered
	c.slotBusy = true
	dev.OccupyFor(radio.RX, actualDur, radio.Idle, r.endFn)
}

// end closes the burst: deliver into the playout buffer and park the radio.
func (r *slotRun) end() {
	c, dev, delivered := r.c, r.c.devices[r.slot.Iface], r.delivered
	c.buffer.Fill(delivered)
	c.received += delivered
	c.slots++
	if delivered < r.slot.Bytes {
		c.partial++
	}
	c.slotBusy = false
	if dev.State() == radio.Idle && !dev.Transitioning() {
		dev.SetState(dev.Profile().DeepState, nil)
	}
	r.finish(delivered)
}
