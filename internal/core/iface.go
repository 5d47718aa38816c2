// Package core implements the paper's contribution: a Hotspot resource
// manager that extends the application-level proxy with centralized,
// QoS-aware scheduling of client data transfers. The server aggregates each
// client's stream requirements, battery state and link conditions, selects
// the wireless interface (Bluetooth vs WLAN) per client, and schedules data
// in large bursts so that client WNICs spend the time between bursts in
// deep low-power states (park for Bluetooth, off for WLAN). Client-side
// resource managers execute the schedule by transitioning WNIC power states
// at exactly the right instants — Figure 1's "each client knows exactly
// when it needs to wake up its WNIC and when it can enter a low power
// state".
package core

import (
	"fmt"

	"repro/internal/radio"
)

// Iface identifies a wireless interface technology.
type Iface int

// The two interfaces of the paper's heterogeneous scenario.
const (
	WLAN Iface = iota
	BT
	numIfaces
)

// String names the interface.
func (i Iface) String() string {
	switch i {
	case WLAN:
		return "wlan"
	case BT:
		return "bluetooth"
	default:
		return fmt.Sprintf("iface(%d)", int(i))
	}
}

// Ifaces lists all modelled interfaces.
func Ifaces() []Iface { return []Iface{WLAN, BT} }

// ifaceProfiles holds one calibrated radio profile per interface, built
// once and shared by every client device and scheduling estimate.
var ifaceProfiles = [numIfaces]*radio.Profile{
	WLAN: radio.WLAN80211b(),
	BT:   radio.Bluetooth(),
}

// profileFor returns the calibrated radio profile for an interface. The
// profile is shared package-wide and read-only: callers must not write
// through the pointer (Client.Device(i).Profile() hands out the same one).
func profileFor(i Iface) *radio.Profile {
	if i < 0 || i >= numIfaces {
		panic(fmt.Sprintf("core: unknown iface %d", int(i)))
	}
	return ifaceProfiles[i]
}

// IfacePolicy selects each client's serving interface at epoch boundaries.
type IfacePolicy int

// Interface-selection policies.
const (
	// PolicyAdaptive prefers Bluetooth while its link is good and its
	// aggregate load fits, switching clients to WLAN otherwise — the
	// paper's scenario ("initially has only Bluetooth enabled and as
	// conditions in the link change, seamlessly switches communication
	// over to WLAN").
	PolicyAdaptive IfacePolicy = iota
	// PolicyWLANOnly pins every client to WLAN.
	PolicyWLANOnly
	// PolicyBTOnly pins every client to Bluetooth.
	PolicyBTOnly
)

// String names the policy.
func (p IfacePolicy) String() string {
	switch p {
	case PolicyAdaptive:
		return "adaptive"
	case PolicyWLANOnly:
		return "wlan-only"
	case PolicyBTOnly:
		return "bt-only"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}
