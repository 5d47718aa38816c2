package radio

import (
	"fmt"

	"repro/internal/sim"
)

// Device is a WNIC instance bound to a simulator: a power state machine that
// meters its own energy. State changes that the Profile lists with a
// transition cost take simulated time, during which the device is in a
// transitional condition drawing the *target* state's power plus the
// transition energy.
type Device struct {
	sim     *sim.Simulator
	profile *Profile
	meter   *Meter

	state         State
	transitioning bool
	transEnd      sim.Time
	// pendingDone holds the done callbacks of scheduled transition ends,
	// oldest first (nil entries included). Two ends can be pending at once:
	// Transitioning() is already false at transEnd, so a new transition can
	// start before the previous one's end event fires.
	pendingDone   []func()
	endTransition func() // d.finishTransition, bound once

	// listeners are notified after every completed state change; the trace
	// package uses this to build Figure 1's power-level lanes.
	listeners []func(t sim.Time, s State)

	// freeOcc holds spent occupancy records for reuse, so a steady stream
	// of OccupyFor calls allocates nothing.
	freeOcc []*occupancy
}

// occupancy is one pending OccupyFor: the state to restore when it ends and
// the caller's done callback. fn is o.fire, bound once per record.
type occupancy struct {
	d       *Device
	restore State
	done    func()
	fn      func()
}

// NewDeviceInState creates a WNIC already in the given state without paying
// any transition cost. MAC models use this for stations that are already
// associated when the simulation starts.
func NewDeviceInState(s *sim.Simulator, p *Profile, initial State) *Device {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	d := &Device{sim: s, profile: p, state: initial}
	d.meter = newMeter(s, p, initial)
	d.endTransition = d.finishTransition
	return d
}

// Profile returns the device's calibration profile.
func (d *Device) Profile() *Profile { return d.profile }

// State returns the current power state. During a transition this is already
// the target state (the hardware is committed), but the device is unusable
// until the transition completes.
func (d *Device) State() State { return d.state }

// Transitioning reports whether a state change is still in flight.
func (d *Device) Transitioning() bool { return d.transitioning && d.sim.Now() < d.transEnd }

// Meter returns the device's energy meter.
func (d *Device) Meter() *Meter { return d.meter }

// OnStateChange registers fn to run after every completed state change.
func (d *Device) OnStateChange(fn func(t sim.Time, s State)) {
	d.listeners = append(d.listeners, fn)
}

// SetState initiates a change to the target state and returns the latency
// until the device is usable in that state. If done is non-nil it runs when
// the transition completes (immediately for free transitions).
//
// Requesting a change while a previous transition is still in flight is a
// modelling error — real firmware serializes these — and panics so tests
// catch protocol bugs.
func (d *Device) SetState(target State, done func()) sim.Time {
	if d.Transitioning() {
		panic(fmt.Sprintf("radio: %s: SetState(%v) during transition to %v (ends %v)",
			d.profile.Name, target, d.state, d.transEnd))
	}
	if target == d.state {
		if done != nil {
			done()
		}
		return 0
	}
	cost := d.profile.TransitionCost(d.state, target)
	d.state = target
	d.meter.setState(target)
	d.meter.addTransitionEnergy(cost.Energy)
	for _, fn := range d.listeners {
		fn(d.sim.Now(), target)
	}
	if cost.Latency == 0 {
		if done != nil {
			done()
		}
		return 0
	}
	d.transitioning = true
	d.transEnd = d.sim.Now() + cost.Latency
	d.pendingDone = append(d.pendingDone, done)
	d.sim.At(d.transEnd, d.endTransition)
	return cost.Latency
}

// finishTransition ends the oldest scheduled transition.
func (d *Device) finishTransition() {
	done := d.pendingDone[0]
	n := copy(d.pendingDone, d.pendingDone[1:])
	d.pendingDone[n] = nil
	d.pendingDone = d.pendingDone[:n]
	d.transitioning = false
	if done != nil {
		done()
	}
}

// TransitionLatency reports the latency of switching from the current state
// to target without performing the switch.
func (d *Device) TransitionLatency(target State) sim.Time {
	return d.profile.TransitionCost(d.state, target).Latency
}

// OccupyFor holds the radio in state s for duration dur then returns it to
// restore; done runs when the radio has returned. MAC models compute their
// own airtimes and use it for transmissions and receptions alike. The
// device must be usable (awake, not mid-transition).
func (d *Device) OccupyFor(s State, dur sim.Time, restore State, done func()) {
	if d.Transitioning() {
		panic(fmt.Sprintf("radio: %s: OccupyFor(%v) during transition", d.profile.Name, s))
	}
	if d.state == Off || d.state == Sleep {
		panic(fmt.Sprintf("radio: %s: OccupyFor(%v) from %v: radio not awake", d.profile.Name, s, d.state))
	}
	d.state = s
	d.meter.setState(s)
	for _, fn := range d.listeners {
		fn(d.sim.Now(), s)
	}
	var o *occupancy
	if n := len(d.freeOcc); n > 0 {
		o = d.freeOcc[n-1]
		d.freeOcc = d.freeOcc[:n-1]
	} else {
		o = &occupancy{d: d}
		o.fn = o.fire
	}
	o.restore, o.done = restore, done
	d.sim.Schedule(dur, o.fn)
}

// fire ends the occupancy. The record goes back on the free list before
// done runs, so a done that occupies the radio again reuses it.
func (o *occupancy) fire() {
	d, restore, done := o.d, o.restore, o.done
	o.done = nil
	d.freeOcc = append(d.freeOcc, o)
	d.state = restore
	d.meter.setState(restore)
	for _, fn := range d.listeners {
		fn(d.sim.Now(), restore)
	}
	if done != nil {
		done()
	}
}
