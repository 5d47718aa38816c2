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

// Monitor observes a Gilbert–Elliott channel through periodic probes and
// exposes a smoothed quality grade. The resource manager owns one Monitor
// per (client, interface) pair.
type Monitor struct {
	ch     *GilbertElliott
	ewma   float64 // smoothed bad-state indicator in [0,1]
	alpha  float64
	ticker *sim.Ticker
}

// MonitorConfig tunes a link monitor.
type MonitorConfig struct {
	// Period is the probe interval.
	Period sim.Time
	// Alpha is the EWMA smoothing weight for new observations (0,1].
	Alpha float64
}

// DefaultMonitorConfig returns the configuration used by the Hotspot
// scenarios: 250 ms probes, EWMA weight 0.3.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{Period: 250 * sim.Millisecond, Alpha: 0.3}
}

// NewMonitor attaches a probe-based monitor to a channel and starts probing.
func NewMonitor(s *sim.Simulator, ch *GilbertElliott, cfg MonitorConfig) *Monitor {
	if cfg.Period <= 0 {
		cfg = DefaultMonitorConfig()
	}
	m := &Monitor{ch: ch, alpha: cfg.Alpha}
	m.ticker = sim.NewTicker(s, cfg.Period, m.probe)
	return m
}

func (m *Monitor) probe() {
	obs := 0.0
	if m.ch.State() == Bad {
		obs = 1.0
	}
	m.ewma = float64(m.alpha*obs) + float64((1-m.alpha)*m.ewma)
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
