package channel

import (
	"repro/internal/sim"
)

// Quality grades a link for the resource manager's interface-selection
// policy. It is deliberately coarse: the paper's server switches interfaces
// on "conditions in the link", not on raw SNR.
type Quality int

// Link quality grades.
const (
	QualityGood Quality = iota
	QualityDegraded
	QualityUnusable
)

// String names the grade.
func (q Quality) String() string {
	switch q {
	case QualityGood:
		return "good"
	case QualityDegraded:
		return "degraded"
	default:
		return "unusable"
	}
}

// Probe settings of the link monitors, those of the Hotspot scenarios.
const (
	probePeriod         = 250 * sim.Millisecond
	probeAlpha  float64 = 0.3 // EWMA weight of a new observation
)

// Monitor observes a Gilbert–Elliott channel through periodic probes and
// exposes a smoothed quality grade. The resource manager owns one Monitor
// per interface, shared by all its clients.
type Monitor struct {
	ch   *GilbertElliott
	ewma float64 // smoothed bad-state indicator in [0,1]
}

// Monitors is a group of monitors probed by one shared event: every
// probePeriod the group probes each monitor in creation order. A probe
// schedules nothing, so this is exactly what one ticker per monitor,
// armed back to back, would do: their firings sit adjacent in the queue
// at every instant, and the group's one event takes the first one's slot.
// A Hotspot's two interfaces so cost one probe event per period, not two.
type Monitors []Monitor

// NewMonitors attaches one monitor to each channel, in order, and starts
// probing them as a group.
func NewMonitors(s *sim.Simulator, chs ...*GilbertElliott) Monitors {
	g := make(Monitors, len(chs))
	for i, ch := range chs {
		g[i].ch = ch
	}
	sim.NewTicker(s, probePeriod, g.probe)
	return g
}

// probe takes one observation of every monitor in the group.
func (g Monitors) probe() {
	for i := range g {
		g[i].probe()
	}
}

func (m *Monitor) probe() {
	obs := 0.0
	if m.ch.State() == Bad {
		obs = 1.0
	}
	m.ewma = float64(probeAlpha*obs) + float64((1-probeAlpha)*m.ewma)
}

// Quality maps the smoothed indicator to a grade. Thresholds chosen so that
// a single isolated fade degrades but does not condemn a link, while a
// persistent fade marks it unusable.
func (m *Monitor) Quality() Quality {
	switch {
	case m.ewma < 0.15:
		return QualityGood
	case m.ewma < 0.6:
		return QualityDegraded
	default:
		return QualityUnusable
	}
}
