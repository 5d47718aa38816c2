// Package proxy implements the application-level proxy of the Hotspot
// architecture: client registration (the paper: "when a new client enters
// the Hotspot environment it registers via an application level proxy").
// The proxy's content adaptation (dropping the video layer and keeping
// audio in adverse conditions) is E12's channelAdapter in internal/exp.
package proxy

import (
	"fmt"

	"repro/internal/sim"
)

// Registration is a client's record at the proxy.
type Registration struct {
	ClientID   int
	RegisterAt sim.Time
	// QoSRateBps is the client's declared stream rate.
	QoSRateBps float64
	// BatteryLevel is the last reported battery fraction.
	BatteryLevel float64
}

// Registrar tracks clients present in the Hotspot environment.
type Registrar struct {
	sim     *sim.Simulator
	clients map[int]*Registration
}

// NewRegistrar creates an empty registrar.
func NewRegistrar(s *sim.Simulator) *Registrar {
	return &Registrar{sim: s, clients: make(map[int]*Registration)}
}

// Register admits a client; re-registration updates the record.
func (r *Registrar) Register(id int, qosRateBps, batteryLevel float64) *Registration {
	if qosRateBps < 0 || batteryLevel < 0 || batteryLevel > 1 {
		panic(fmt.Sprintf("proxy: invalid registration id=%d rate=%g battery=%g",
			id, qosRateBps, batteryLevel))
	}
	reg := &Registration{
		ClientID:     id,
		RegisterAt:   r.sim.Now(),
		QoSRateBps:   qosRateBps,
		BatteryLevel: batteryLevel,
	}
	r.clients[id] = reg
	return reg
}

// Deregister removes a client.
func (r *Registrar) Deregister(id int) { delete(r.clients, id) }

// Lookup returns a client's registration, or nil.
func (r *Registrar) Lookup(id int) *Registration { return r.clients[id] }

// Count returns the number of registered clients.
func (r *Registrar) Count() int { return len(r.clients) }

// UpdateBattery refreshes a client's reported battery level.
func (r *Registrar) UpdateBattery(id int, level float64) {
	if reg := r.clients[id]; reg != nil {
		reg.BatteryLevel = level
	}
}
