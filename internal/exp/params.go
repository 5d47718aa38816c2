package exp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/mac/psm"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Parameterised specs: the configurable runs behind macbench and
// hotspotsim. Each config has a total Validate and a canonical encoding,
// Params, which is its specs' Params: it keys the result cache, and any
// binary importing this package rebuilds the specs from (name, Params).

// maxStations bounds the stations of a MACLoad and the clients of a
// HotspotRun at 802.11's 2007 association ids, so a hostile params string
// cannot size a simulation without limit.
const maxStations = 2007

// MACLoad is the downlink load macbench compares the survey's MAC
// protocols on, with e5's legs: an AP sends each of Stations stations a
// 2000-byte chunk at RateKBs KB/s, for Duration simulated seconds, with
// no uplink traffic.
type MACLoad struct {
	Stations int
	RateKBs  float64
	Duration float64
}

const (
	macLoadFormat = "stations=%d rate=%g duration=%g"
	macLoadChunk  = 2000 // bytes per downlink delivery
)

// macLegs names MACLoad's specs in table order.
var macLegs = [...]struct{ name, desc string }{
	{"cam", "CAM (DCF)"},
	{"psm", "802.11 PSM"},
	{"ecmac", "EC-MAC"},
}

// Params is the load's canonical encoding.
func (c MACLoad) Params() string {
	return fmt.Sprintf(macLoadFormat, c.Stations, c.RateKBs, c.Duration)
}

// ParseMACLoad is the inverse of Params: it accepts exactly the strings
// Params produces for a valid load.
func ParseMACLoad(params string) (MACLoad, error) {
	var c MACLoad
	err := parseParams(params, macLoadFormat, &c, &c.Stations, &c.RateKBs, &c.Duration)
	return c, err
}

// Validate rejects a load no simulation can run: a station count outside
// [1, maxStations], or a delivery period or duration that is not a
// usable time (see checkSeconds).
func (c MACLoad) Validate() error {
	if c.Stations < 1 || c.Stations > maxStations {
		return fmt.Errorf("stations must be in [1, %d] (got %d)", maxStations, c.Stations)
	}
	if checkSeconds("", macLoadChunk/(c.RateKBs*1024), false) != nil {
		return fmt.Errorf("rate must put 1e-06 to %.4g seconds between deliveries (got %v KB/s)", maxSeconds, c.RateKBs)
	}
	return checkSeconds("duration", c.Duration, false)
}

// Specs returns the load's CAM, 802.11 PSM and EC-MAC specs, in macLegs
// order. Each reports the stations' mean power (avgW), the medium's
// collisions and the data frames delivered.
func (c MACLoad) Specs() []scenario.Spec {
	n, dur := c.Stations, sim.FromSeconds(c.Duration)
	every := sim.FromSeconds(macLoadChunk / (c.RateKBs * 1024))
	def := psm.DefaultConfig()
	specs := make([]scenario.Spec, len(macLegs))
	for leg, l := range macLegs {
		specs[leg] = scenario.Spec{Name: l.name, Desc: l.desc, Tags: []string{"mac"}, Params: c.Params(),
			Run: func(seed int64) Result {
				var w float64
				var coll, recv int
				switch leg {
				case 0:
					w, coll, recv = runDCFDownlink(seed, n, macLoadChunk, every, 0, dur, nil)
				case 1:
					w, coll, recv = runDCFDownlink(seed, n, macLoadChunk, every, 0, dur, &def)
				default:
					w, recv = runECMACDownlink(seed, n, macLoadChunk, every, dur)
				}
				return Result{Name: l.name, Values: map[string]float64{
					"avgW": w, "collisions": float64(coll), "delivered": float64(recv),
				}}
			}}
	}
	return specs
}

// HotspotRun is hotspotsim's scenario: Clients MP3-streaming clients under
// the named scheduler (edf, wfq or rr) and interface policy (adaptive,
// wlan or bt), with scheduling epochs of Epoch seconds, for Duration
// simulated seconds. When OutageAt is positive, WLAN is forced bad at
// that second for OutageLen seconds.
type HotspotRun struct {
	Clients             int
	Scheduler, Policy   string
	Epoch, Duration     float64
	OutageAt, OutageLen float64
}

const hotspotFormat = "clients=%d scheduler=%s policy=%s epoch=%g duration=%g outage=%g outage-len=%g"

// hotspotSchedulers and hotspotPolicies resolve HotspotRun's names. A
// scheduler may keep per-run state (WFQ does), so each run builds its own.
var (
	hotspotSchedulers = map[string]func() core.Scheduler{
		"edf": func() core.Scheduler { return core.EDF{} },
		"wfq": func() core.Scheduler { return core.NewWFQ() },
		"rr":  func() core.Scheduler { return core.RoundRobin{} },
	}
	hotspotPolicies = map[string]core.IfacePolicy{
		"adaptive": core.PolicyAdaptive,
		"wlan":     core.PolicyWLANOnly,
		"bt":       core.PolicyBTOnly,
	}
)

// e15Run is E15's scenario: three clients, WLAN out from 40 s to 80 s.
var e15Run = HotspotRun{Clients: 3, Scheduler: "edf", Policy: "adaptive",
	Epoch: 10, Duration: 120, OutageAt: 40, OutageLen: 40}

// Params is the run's canonical encoding.
func (c HotspotRun) Params() string {
	return fmt.Sprintf(hotspotFormat, c.Clients, c.Scheduler, c.Policy,
		c.Epoch, c.Duration, c.OutageAt, c.OutageLen)
}

// ParseHotspotRun is the inverse of Params: it accepts exactly the strings
// Params produces for a valid run.
func ParseHotspotRun(params string) (HotspotRun, error) {
	var c HotspotRun
	err := parseParams(params, hotspotFormat, &c, &c.Clients, &c.Scheduler, &c.Policy,
		&c.Epoch, &c.Duration, &c.OutageAt, &c.OutageLen)
	return c, err
}

// Validate rejects a run no simulation can use: a client count outside
// [1, maxStations], an unknown scheduler or policy, a time that is not
// usable (see checkSeconds; the outage start may be zero, meaning none),
// and an epoch the resource manager rejects.
func (c HotspotRun) Validate() error {
	if c.Clients < 1 || c.Clients > maxStations {
		return fmt.Errorf("clients must be in [1, %d] (got %d)", maxStations, c.Clients)
	}
	if hotspotSchedulers[c.Scheduler] == nil {
		return fmt.Errorf("unknown scheduler %q (want edf, wfq or rr)", c.Scheduler)
	}
	if _, ok := hotspotPolicies[c.Policy]; !ok {
		return fmt.Errorf("unknown policy %q (want adaptive, wlan or bt)", c.Policy)
	}
	if err := errors.Join(checkSeconds("epoch", c.Epoch, false), checkSeconds("duration", c.Duration, false),
		checkSeconds("outage", c.OutageAt, true), checkSeconds("outage-len", c.OutageLen, false)); err != nil {
		return err
	}
	return c.config().Validate()
}

// config is the resource-manager configuration the run uses.
func (c HotspotRun) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Epoch = sim.FromSeconds(c.Epoch)
	cfg.Scheduler = hotspotSchedulers[c.Scheduler]()
	cfg.Policy = hotspotPolicies[c.Policy]
	return cfg
}

// Run simulates the scenario on one seed and returns the Hotspot and its
// report.
func (c HotspotRun) Run(seed int64) (*core.Hotspot, core.Report) {
	h := core.NewHotspot(seed, c.config(), c.Clients)
	if c.OutageAt > 0 {
		at := sim.FromSeconds(c.OutageAt)
		h.Sim().At(at, func() { h.Channel(core.WLAN).ForceState(channel.Bad) })
		h.Sim().At(at+sim.FromSeconds(c.OutageLen), func() { h.Channel(core.WLAN).ForceState(channel.Good) })
	}
	return h, h.Run(sim.FromSeconds(c.Duration))
}

// Spec returns the run as the "hotspot" spec, reporting mean power,
// underruns, stall seconds, urgent top-ups, interface switches and slots.
func (c HotspotRun) Spec() scenario.Spec {
	return scenario.Spec{
		Name:   "hotspot",
		Desc:   fmt.Sprintf("%d clients, %s/%s, epoch %gs", c.Clients, c.Scheduler, c.Policy, c.Epoch),
		Tags:   []string{"hotspot"},
		Params: c.Params(),
		Run: func(seed int64) Result {
			h, rep := c.Run(seed)
			return Result{Name: "hotspot", Values: map[string]float64{
				"meanW":     rep.MeanPowerW,
				"underruns": float64(rep.TotalUnderruns),
				"stallS":    rep.TotalStall.Seconds(),
				"urgents":   float64(h.RM().Urgents()),
				"switches":  float64(switches(h)),
				"slots":     float64(len(rep.Slots)),
			}}
		},
	}
}

// switches totals the interface switches of a Hotspot's clients.
func switches(h *core.Hotspot) int {
	n := 0
	for _, c := range h.RM().Clients() {
		n += c.Switches()
	}
	return n
}

// registerBuilders makes every parameterised spec resolvable from its
// (name, Params) pair.
func registerBuilders() {
	for leg, l := range macLegs {
		scenario.RegisterBuilder(l.name, func(params string) (scenario.Spec, error) {
			c, err := ParseMACLoad(params)
			if err != nil {
				return scenario.Spec{}, err
			}
			return c.Specs()[leg], nil
		})
	}
	scenario.RegisterBuilder("hotspot", func(params string) (scenario.Spec, error) {
		c, err := ParseHotspotRun(params)
		if err != nil {
			return scenario.Spec{}, err
		}
		return c.Spec(), nil
	})
}

// parseParams scans params with format into fields, which point into *c,
// and accepts them only when c is valid and its own encoding gives params
// back byte for byte: "stations=04" or "rate=16.0" would otherwise name
// the canonical spelling's run under a cache key of its own. On error *c
// is zeroed.
func parseParams[C interface {
	Params() string
	Validate() error
}](params, format string, c *C, fields ...any) error {
	_, err := fmt.Sscanf(params, format, fields...)
	if err != nil {
		err = fmt.Errorf("params %q do not match %q: %v", params, format, err)
	} else if canon := (*c).Params(); canon != params {
		err = fmt.Errorf("params %q are not canonical (want %q)", params, canon)
	} else {
		err = (*c).Validate()
	}
	if err != nil {
		var zero C
		*c = zero
	}
	return err
}

// maxSeconds bounds simulated times at half the simulator's clock, so
// each converts to a sim.Time and the sum of two still fits.
const maxSeconds = float64(sim.MaxTime/2) / float64(sim.Second)

// checkSeconds rejects a simulated time no run can use: anything but a
// value from 1 µs up to maxSeconds, or zero when allowZero is set. NaN,
// ±Inf, negative values and negative zero are all rejected; without the
// check they panic inside a pool goroutine or, for NaN, convert to the
// most negative sim.Time.
func checkSeconds(name string, v float64, allowZero bool) error {
	if v > 0 && v < maxSeconds && sim.FromSeconds(v) > 0 || allowZero && v == 0 && !math.Signbit(v) {
		return nil
	}
	zero := ""
	if allowZero {
		zero = "0 or "
	}
	return fmt.Errorf("%s must be %sin [1e-06, %.4g) seconds (got %v)", name, zero, maxSeconds, v)
}
