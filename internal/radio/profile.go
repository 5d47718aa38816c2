// Package radio models wireless network interface cards (WNICs) as power
// state machines with calibrated per-state power draw, state-transition
// latencies and energies, and energy metering.
//
// The paper's Figure 2 compares the *average power* of an iPAQ 3970's WNIC
// under three delivery strategies; average power is fully determined by how
// long the WNIC resides in each state times that state's power, which is
// exactly what this package accounts for.
package radio

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// State identifies a WNIC power state.
type State int

// WNIC power states, ordered roughly by increasing power draw. Sleep doubles
// as 802.11 "doze" and Bluetooth "park": a state retaining the association at
// very low power. Off is fully powered down and must pay a re-association
// cost to come back.
const (
	Off State = iota
	Sleep
	Idle // powered, listening to the medium
	RX
	TX
	numStates
)

// String returns the conventional name of the state.
func (s State) String() string {
	switch s {
	case Off:
		return "off"
	case Sleep:
		return "sleep"
	case Idle:
		return "idle"
	case RX:
		return "rx"
	case TX:
		return "tx"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// States lists all modelled states in ascending power order.
func States() []State { return []State{Off, Sleep, Idle, RX, TX} }

// Transition describes the cost of moving between two power states.
type Transition struct {
	Latency sim.Time // time during which the WNIC is unusable
	Energy  float64  // joules consumed by the transition itself
}

// TransitionTable holds the cost of every (from, to) state change as a
// dense array indexed by the two states. The zero value — every entry
// instantaneous and free — is a valid table. A dense array instead of a
// map keeps TransitionCost a two-index load: the lookup sits on the
// per-station beacon path of the metro experiments (millions of calls per
// run), where hashing a 16-byte map key was ~30% of the whole simulation.
type TransitionTable [numStates][numStates]Transition

// Profile is the calibration data for one WNIC technology: state power draw,
// transition costs and link-speed characteristics.
//
// A Device keeps the pointer it was built with and never writes through it,
// so one Profile may back many devices; such a shared profile is read-only
// (the Hotspot model shares one per interface across all its clients).
// Callers that want to tweak a calibration take a fresh copy from
// WLAN80211b or Bluetooth.
type Profile struct {
	Name string

	// Power holds the draw of each state in watts.
	Power [numStates]float64

	// Transitions holds the cost of each (from, to) state change. Entries
	// left zero are instantaneous and free.
	Transitions TransitionTable

	// BitRate is the nominal PHY rate in bits/second.
	BitRate float64

	// Goodput is the effective application-level throughput in bits/second
	// once MAC/transport overheads are paid; used by burst-level models.
	Goodput float64

	// PerBurstOverhead is the fixed time cost of starting a burst transfer
	// (polling, scheduling grant, transport ramp-up).
	PerBurstOverhead sim.Time

	// DeepState is the state the technology uses for long-term inactivity
	// under scheduled delivery: Off for WLAN (re-association is affordable
	// between multi-second bursts), Sleep (= park) for Bluetooth.
	DeepState State
}

// TransitionCost returns the latency/energy to move between two states.
// Unlisted transitions are instantaneous and free.
func (p *Profile) TransitionCost(from, to State) Transition {
	return p.Transitions[from][to]
}

// TxTime returns the time to transmit n bytes at the nominal PHY rate.
func (p *Profile) TxTime(bytes int) sim.Time {
	return sim.FromSeconds(float64(bytes*8) / p.BitRate)
}

// BurstTime returns the time to deliver n bytes at effective goodput,
// including the fixed per-burst overhead.
func (p *Profile) BurstTime(bytes int) sim.Time {
	return p.PerBurstOverhead + sim.FromSeconds(float64(bytes*8)/p.Goodput)
}

// Validate checks internal consistency of the calibration data.
func (p *Profile) Validate() error {
	// Every check is written so that NaN fails it, and +Inf is rejected
	// explicitly: either would turn every energy it touches into NaN.
	if p.Name == "" {
		return fmt.Errorf("radio: profile missing name")
	}
	if !(p.BitRate > 0) || math.IsInf(p.BitRate, 1) {
		return fmt.Errorf("radio: profile %s: bit rate %g must be finite and positive", p.Name, p.BitRate)
	}
	if !(p.Goodput > 0 && p.Goodput <= p.BitRate) {
		return fmt.Errorf("radio: profile %s: goodput %.0f outside (0, bitrate]", p.Name, p.Goodput)
	}
	for _, s := range States() {
		if !(p.Power[s] >= 0) || math.IsInf(p.Power[s], 1) {
			return fmt.Errorf("radio: profile %s: power %g for %v must be finite and non-negative", p.Name, p.Power[s], s)
		}
	}
	if p.Power[Off] != 0 {
		return fmt.Errorf("radio: profile %s: Off state must draw zero power", p.Name)
	}
	if p.Power[Sleep] > p.Power[Idle] {
		return fmt.Errorf("radio: profile %s: sleep draws more than idle", p.Name)
	}
	for from := range p.Transitions {
		for to, t := range p.Transitions[from] {
			if t.Latency < 0 || !(t.Energy >= 0) || math.IsInf(t.Energy, 1) {
				return fmt.Errorf("radio: profile %s: transition cost %v->%v must be finite and non-negative",
					p.Name, State(from), State(to))
			}
		}
	}
	return nil
}

// WLAN80211b returns a fresh copy of the calibrated 802.11b CF-card profile
// used for the iPAQ 3970 reproduction. Values follow published measurements
// of that era's hardware: idle listening costs nearly as much as receiving,
// which is the paper's motivating observation ("WLANs spend as much as 90%
// of their time listening").
func WLAN80211b() *Profile {
	return &Profile{
		Name: "wlan-802.11b",
		Power: [numStates]float64{
			Off:   0,
			Sleep: 0.045, // 802.11 doze, association kept
			Idle:  1.35,  // awake, listening
			RX:    1.40,
			TX:    1.65,
		},
		Transitions: TransitionTable{
			Off: {Idle: {Latency: 100 * sim.Millisecond, Energy: 0.135}}, // power-up + re-associate
			Idle: {
				Off:   {Latency: 10 * sim.Millisecond, Energy: 0.005},
				Sleep: {Latency: 1 * sim.Millisecond, Energy: 0.001},
			},
			Sleep: {Idle: {Latency: 2 * sim.Millisecond, Energy: 0.002}},
		},
		BitRate:          11e6,
		Goodput:          5.8e6, // MAC+TCP efficiency of 802.11b bulk transfer
		PerBurstOverhead: 8 * sim.Millisecond,
		DeepState:        Off,
	}
}

// Bluetooth returns a fresh copy of the calibrated Bluetooth 1.1 module
// profile. Bluetooth's low-power "park" mode maps to Sleep; exiting park is
// much cheaper than a WLAN re-association, but active throughput is ~15x
// lower.
func Bluetooth() *Profile {
	return &Profile{
		Name: "bluetooth",
		Power: [numStates]float64{
			Off:   0,
			Sleep: 0.005, // park with a slow beacon train: a few mW
			Idle:  0.39,  // connected, no traffic
			RX:    0.425,
			TX:    0.465,
		},
		Transitions: TransitionTable{
			Off: {Idle: {Latency: 2 * sim.Second, Energy: 0.6}}, // inquiry+page: why BT uses park, not off
			Idle: {
				Off:   {Latency: 5 * sim.Millisecond, Energy: 0.001},
				Sleep: {Latency: 10 * sim.Millisecond, Energy: 0.002},
			},
			Sleep: {Idle: {Latency: 20 * sim.Millisecond, Energy: 0.004}},
		},
		BitRate:          723.2e3,
		Goodput:          560e3,
		PerBurstOverhead: 25 * sim.Millisecond,
		DeepState:        Sleep,
	}
}
