package channel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// refMonitor is the one-ticker-per-monitor original of Monitors: each
// monitor arms its own sim.Ticker and keeps its own EWMA weight. It is the
// bit-for-bit oracle of TestMonitorsMatchReference.
type refMonitor struct {
	ch    *GilbertElliott
	ewma  float64
	alpha float64
}

func newRefMonitor(s *sim.Simulator, ch *GilbertElliott, period sim.Time, alpha float64) *refMonitor {
	m := &refMonitor{ch: ch, alpha: alpha}
	sim.NewTicker(s, period, m.probe)
	return m
}

func (m *refMonitor) probe() {
	obs := 0.0
	if m.ch.State() == Bad {
		obs = 1.0
	}
	m.ewma = float64(m.alpha*obs) + float64((1-m.alpha)*m.ewma)
}

// probeRun is one side of the comparison: the same scenario, probed by the
// reference monitors or by one group.
type probeRun struct {
	ewma    func(i int) float64
	quality func(i int) Quality
}

// probeScenario plans one randomized monitoring run. Every choice is drawn
// from seed before or during the run in event order, so both sides see the
// same plan as long as their events fire in the same order.
type probeScenario struct {
	seed   int64
	chans  int  // monitors in the group
	frozen int  // bitmask of frozen channels
	group  bool // Monitors instead of refMonitors
}

// run executes the scenario and returns its log: one line per Quality()
// read, carrying the instant, the reader and every monitor's EWMA bits.
func (sc probeScenario) run() []string {
	s := sim.New(sc.seed)
	plan := rand.New(rand.NewSource(sc.seed))
	chs := make([]*GilbertElliott, sc.chans)
	for i := range chs {
		chs[i] = NewGilbertElliott(s, GEParams{
			MeanGood: 900 * sim.Millisecond, MeanBad: 600 * sim.Millisecond,
			BERGood: 1e-6, BERBad: 1e-3,
		})
		if sc.frozen&(1<<i) != 0 {
			chs[i].Freeze()
		}
	}
	var log []string
	var pr probeRun
	read := func(who string) {
		line := fmt.Sprintf("%d %s", s.Now(), who)
		for i := range chs {
			line += fmt.Sprintf(" %#x/%v", math.Float64bits(pr.ewma(i)), pr.quality(i))
		}
		log = append(log, line)
	}
	// act reads, and one time in two forces a random channel's state.
	act := func(who string) {
		read(who)
		if plan.Intn(2) == 0 {
			chs[plan.Intn(len(chs))].ForceState(LinkState(plan.Intn(2)))
			read(who + "+force")
		}
	}
	// Events at the first probe instants scheduled before the monitors
	// exist fire ahead of the probe there; ones scheduled after the
	// monitors fire behind the first probe and ahead of the later ones.
	for k := 1; k <= 3; k++ {
		s.At(sim.Time(k)*probePeriod, func() { act(fmt.Sprintf("pre%d", k)) })
	}
	// A chain started before the monitors re-arms ahead of each probe; one
	// started after them re-arms behind it. Both land exactly on every
	// probe instant.
	var chain func(name string) func()
	chain = func(name string) func() {
		var tick func()
		tick = func() {
			act(name)
			s.Schedule(probePeriod, tick)
		}
		return tick
	}
	s.At(probePeriod, chain("ahead"))
	if sc.group {
		g := NewMonitors(s, chs...)
		pr = probeRun{
			ewma:    func(i int) float64 { return g[i].ewma },
			quality: func(i int) Quality { return g[i].Quality() },
		}
	} else {
		refs := make([]*refMonitor, len(chs))
		for i, ch := range chs {
			refs[i] = newRefMonitor(s, ch, 250*sim.Millisecond, 0.3)
		}
		pr = probeRun{
			ewma:    func(i int) float64 { return refs[i].ewma },
			quality: func(i int) Quality { return (&Monitor{ewma: refs[i].ewma}).Quality() },
		}
	}
	for k := 1; k <= 3; k++ {
		s.At(sim.Time(k)*probePeriod, func() { act(fmt.Sprintf("post%d", k)) })
	}
	s.At(probePeriod, chain("behind"))
	// A wanderer hops a random number of periods, sometimes off the probe
	// grid by a few microseconds, and sometimes to the same instant again,
	// which puts it behind a probe that just fired.
	var wander func()
	wander = func() {
		act("wander")
		var d sim.Time
		switch plan.Intn(4) {
		case 0:
			d = 0
		case 1:
			d = sim.Time(1 + plan.Intn(3))
		default:
			d = sim.Time(1+plan.Intn(4)) * probePeriod
		}
		if s.Now() < 60*sim.Second {
			s.Schedule(d, wander)
		}
	}
	s.At(sim.Time(plan.Intn(4))*probePeriod, wander)
	// RunUntil splits land on probe instants, one microsecond either side
	// of them, or anywhere; every split reads from outside the loop.
	for now := sim.Time(0); now < 60*sim.Second; {
		switch plan.Intn(3) {
		case 0:
			now = (now/probePeriod + sim.Time(1+plan.Intn(8))) * probePeriod
		case 1:
			now = (now/probePeriod+sim.Time(1+plan.Intn(8)))*probePeriod + sim.Time(plan.Intn(3)-1)
		default:
			now += sim.Time(1 + plan.Int63n(int64(3*probePeriod)))
		}
		s.RunUntil(now)
		read("split")
	}
	return log
}

// TestMonitorsMatchReference holds a group of monitors to the original
// one-ticker-per-monitor code: equal EWMA bits and grades at every read,
// over frozen and unfrozen channels, forced states on probe instants,
// readers ahead of and behind the probes and random RunUntil splits.
func TestMonitorsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		sc := probeScenario{seed: seed, chans: 1 + int(seed%3), frozen: int(seed/3) % 8}
		ref := sc.run()
		sc.group = true
		got := sc.run()
		for i := 0; i < len(ref) || i < len(got); i++ {
			var r, g string
			if i < len(ref) {
				r = ref[i]
			}
			if i < len(got) {
				g = got[i]
			}
			if r != g {
				t.Fatalf("%+v: read %d is\n  %s\nreference reads\n  %s", sc, i, g, r)
			}
		}
	}
}
