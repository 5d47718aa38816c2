// Package pamas models a PAMAS-style power-aware MAC for ad-hoc networks:
// RTS/CTS exchanges on a separate signalling channel announce transmission
// durations, letting every node that is neither sender nor receiver power
// its data radio down for exactly that long — eliminating overhearing cost.
// On top of that, nodes "independently enter sleep state based on their
// battery levels" (the paper's characterization): the lower a node's
// battery, the more aggressively it sleeps through idle periods, trading
// latency for lifetime.
package pamas

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Mode selects the node sleeping discipline.
type Mode int

const (
	// AlwaysListen is the baseline: nodes keep their data radio listening
	// during every transmission (classic CSMA overhearing).
	AlwaysListen Mode = iota
	// Pamas powers the data radio down during others' transmissions.
	Pamas
	// PamasBattery adds battery-level-driven idle sleeping to Pamas.
	PamasBattery
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case AlwaysListen:
		return "always-listen"
	case Pamas:
		return "pamas"
	default:
		return "pamas+battery"
	}
}

// Config parameterizes a PAMAS network.
type Config struct {
	// Mode selects the sleeping discipline.
	Mode Mode
	// BitRate is the data-channel rate in bits/second.
	BitRate float64
	// ControlPower is the constant draw of the signalling receiver in
	// watts. It is always on in every mode (PAMAS's control channel is how
	// nodes learn transmission durations).
	ControlPower float64
	// BatteryCapacity is each node's initial energy in joules.
	BatteryCapacity float64
	// LowBattery is the level below which PamasBattery nodes begin idle
	// sleeping.
	LowBattery float64
	// IdleSleepQuantum is how long a low-battery node sleeps per idle
	// sleep episode.
	IdleSleepQuantum sim.Time
	// TrackerPeriod is the battery-drain sampling period.
	TrackerPeriod sim.Time
}

// DefaultConfig returns the E7 experiment parameters.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:             mode,
		BitRate:          2e6, // 2 Mb/s ad-hoc radios
		ControlPower:     0.010,
		BatteryCapacity:  200, // joules: small sensor-class battery
		LowBattery:       0.4,
		IdleSleepQuantum: 500 * sim.Millisecond,
		TrackerPeriod:    250 * sim.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BitRate <= 0 || c.BatteryCapacity <= 0 {
		return fmt.Errorf("pamas: rate and capacity must be positive")
	}
	if c.LowBattery < 0 || c.LowBattery > 1 {
		return fmt.Errorf("pamas: low-battery threshold outside [0,1]")
	}
	return nil
}

// Node is one ad-hoc network participant.
type Node struct {
	dev     *radio.Device
	battery *energy.Battery

	sleepUntil sim.Time // data radio forced asleep through here
	idleSleeps int
	sent       int
	recv       int
	alive      bool
}

// Network is a single-collision-domain ad-hoc network. The signalling
// channel serializes data transmissions (RTS/CTS wins the channel), so data
// frames never collide; what differs between modes is what *third parties*
// do while a transmission is in the air.
type Network struct {
	sim   *sim.Simulator
	cfg   Config
	nodes []*Node

	busy     bool
	backlog  []func()
	firstDie sim.Time

	delivered      int
	deliveredBytes int
}

// NewNetwork creates a PAMAS network with n nodes.
func NewNetwork(s *sim.Simulator, cfg Config, n int) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	net := &Network{sim: s, cfg: cfg, firstDie: sim.MaxTime}
	for i := 0; i < n; i++ {
		dev := radio.NewDeviceInState(s, adHocProfile(cfg.BitRate), radio.Idle)
		b := energy.NewBattery(cfg.BatteryCapacity)
		node := &Node{dev: dev, battery: b, alive: true}
		b.OnDeath = func(at sim.Time) {
			node.alive = false
			if at < net.firstDie {
				net.firstDie = at
			}
			if dev.State() != radio.Off && !dev.Transitioning() {
				dev.SetState(radio.Off, nil)
			}
		}
		energy.NewTracker(s, &nodeEnergy{node: node, net: net}, b, cfg.TrackerPeriod)
		net.nodes = append(net.nodes, node)
	}
	return net
}

// adHocProfile builds the sensor-class data radio used by E7.
func adHocProfile(bitRate float64) *radio.Profile {
	return &radio.Profile{
		Name: "adhoc-2mbps",
		Power: [5]float64{
			radio.Off:   0,
			radio.Sleep: 0.005,
			radio.Idle:  0.75,
			radio.RX:    0.90,
			radio.TX:    1.20,
		},
		Transitions: radio.TransitionTable{
			radio.Sleep: {radio.Idle: {Latency: 800 * sim.Microsecond, Energy: 0.0005}},
			radio.Idle:  {radio.Sleep: {Latency: 400 * sim.Microsecond, Energy: 0.0002}},
		},
		BitRate:          bitRate,
		Goodput:          bitRate * 0.8,
		PerBurstOverhead: sim.Millisecond,
		DeepState:        radio.Sleep,
	}
}

// nodeEnergy adapts a node's full draw (data radio + control receiver) to
// the battery tracker.
type nodeEnergy struct {
	node *Node
	net  *Network
}

// TotalEnergy implements energy.EnergySource: radio energy plus the constant
// control-channel draw integrated over elapsed time.
func (ne *nodeEnergy) TotalEnergy() float64 {
	ctl := float64(ne.net.cfg.ControlPower * ne.net.sim.Now().Seconds())
	return ne.node.dev.Meter().TotalEnergy() + ctl
}

// NumAlive counts nodes with remaining energy.
func (n *Network) NumAlive() int {
	alive := 0
	for _, nd := range n.nodes {
		if nd.alive {
			alive++
		}
	}
	return alive
}

// FirstDeath returns when the first node died, or sim.MaxTime.
func (n *Network) FirstDeath() sim.Time { return n.firstDie }

// Delivered returns total delivered packets and bytes.
func (n *Network) Delivered() (packets, bytes int) {
	return n.delivered, n.deliveredBytes
}

// Send queues a data transfer from src to dst. The RTS/CTS handshake on the
// signalling channel wins the data channel; when busy the request backlogs.
func (n *Network) Send(src, dst int, bytes int) {
	if src == dst || src < 0 || dst < 0 || src >= len(n.nodes) || dst >= len(n.nodes) {
		panic(fmt.Sprintf("pamas: bad flow %d->%d", src, dst))
	}
	attempt := func() { n.tryTransmit(src, dst, bytes) }
	if n.busy {
		n.backlog = append(n.backlog, attempt)
		return
	}
	attempt()
}

func (n *Network) tryTransmit(src, dst int, bytes int) {
	s, d := n.nodes[src], n.nodes[dst]
	if !s.alive || !d.alive {
		return
	}
	if n.busy {
		n.backlog = append(n.backlog, func() { n.tryTransmit(src, dst, bytes) })
		return
	}
	now := n.sim.Now()
	// A sleeping party (PAMAS idle-sleep) defers the exchange until it is
	// listening again; the RTS would not be answered.
	wakeAt := sim.Max(s.sleepUntil, d.sleepUntil)
	if wakeAt > now {
		n.sim.At(wakeAt, func() { n.tryTransmit(src, dst, bytes) })
		return
	}
	n.busy = true
	dur := sim.FromSeconds(float64(bytes*8) / n.cfg.BitRate)
	done := 2 // sender + receiver completions
	finish := func() {
		done--
		if done > 0 {
			return
		}
		n.busy = false
		n.delivered++
		n.deliveredBytes += bytes
		s.sent++
		d.recv++
		n.maybeIdleSleep()
		n.drainBacklog()
	}
	n.occupy(s, radio.TX, dur, finish)
	n.occupy(d, radio.RX, dur, finish)

	// Third parties: the defining PAMAS behaviour.
	for _, other := range n.nodes {
		if other == s || other == d || !other.alive {
			continue
		}
		switch n.cfg.Mode {
		case AlwaysListen:
			// Overhearing: radio in RX for the whole transmission.
			n.occupy(other, radio.RX, dur, nil)
		case Pamas, PamasBattery:
			n.sleepFor(other, dur)
		}
	}
}

// occupy wraps Device.OccupyFor with liveness and state guards.
func (n *Network) occupy(node *Node, st radio.State, dur sim.Time, done func()) {
	if !node.alive || node.dev.Transitioning() || node.dev.State() == radio.Off {
		if done != nil {
			done()
		}
		return
	}
	if node.dev.State() == radio.Sleep {
		// Wake first, shortening the active period by the wake latency.
		lat := node.dev.TransitionLatency(radio.Idle)
		node.dev.SetState(radio.Idle, func() {
			rem := dur - lat
			if rem <= 0 {
				if done != nil {
					done()
				}
				return
			}
			node.dev.OccupyFor(st, rem, radio.Idle, done)
		})
		return
	}
	node.dev.OccupyFor(st, dur, radio.Idle, done)
}

// sleepFor puts a third party's data radio to sleep for the announced
// transmission duration (it learned the duration from the RTS/CTS).
func (n *Network) sleepFor(node *Node, dur sim.Time) {
	if !node.alive || node.dev.Transitioning() || node.dev.State() != radio.Idle {
		return
	}
	wake := n.sim.Now() + dur
	if wake <= node.sleepUntil {
		return // already sleeping past that point
	}
	node.sleepUntil = wake
	node.dev.SetState(radio.Sleep, nil)
	n.sim.At(wake, func() {
		if node.alive && node.dev.State() == radio.Sleep && !node.dev.Transitioning() &&
			n.sim.Now() >= node.sleepUntil {
			node.dev.SetState(radio.Idle, nil)
		}
	})
}

// maybeIdleSleep lets low-battery nodes opportunistically sleep after a
// transmission completes (PamasBattery mode only).
func (n *Network) maybeIdleSleep() {
	if n.cfg.Mode != PamasBattery {
		return
	}
	for _, node := range n.nodes {
		if !node.alive || node.battery.Level() > n.cfg.LowBattery {
			continue
		}
		if node.dev.State() != radio.Idle || node.dev.Transitioning() {
			continue
		}
		// Sleep aggressiveness grows as the battery drains: quantum scaled
		// by (threshold - level)/threshold.
		frac := (n.cfg.LowBattery - node.battery.Level()) / n.cfg.LowBattery
		dur := sim.FromSeconds(n.cfg.IdleSleepQuantum.Seconds() * (0.5 + frac))
		node.idleSleeps++
		n.sleepFor(node, dur)
	}
}

func (n *Network) drainBacklog() {
	if len(n.backlog) == 0 || n.busy {
		return
	}
	next := n.backlog[0]
	n.backlog = n.backlog[1:]
	next()
}
