package power

import (
	"testing"

	"repro/internal/radio"
	"repro/internal/sim"
)

// burstyTrace builds a trace of request bursts separated by long idle gaps —
// the regime where DPM pays off.
func burstyTrace(nBursts, perBurst int, gap sim.Time) []Request {
	var tr []Request
	t := sim.Second
	for b := 0; b < nBursts; b++ {
		for i := 0; i < perBurst; i++ {
			tr = append(tr, Request{Arrival: t, Service: 2 * sim.Millisecond})
			t += 5 * sim.Millisecond
		}
		t += gap
	}
	return tr
}

func TestBreakeven(t *testing.T) {
	p := radio.WLAN80211b()
	be := Breakeven(p)
	// Transition energies 0.001+0.002 J over (1.35-0.045) W ≈ 2.3 ms, but
	// latency floor is 1+2 = 3 ms.
	if be != 3*sim.Millisecond {
		t.Errorf("breakeven = %v, want 3ms (latency floor)", be)
	}
}

func TestBreakevenNoSavings(t *testing.T) {
	p := radio.WLAN80211b()
	p.Power[radio.Sleep] = p.Power[radio.Idle] // sleep saves nothing
	if Breakeven(p) != sim.MaxTime {
		t.Error("breakeven should be infinite when sleep saves nothing")
	}
}

func TestAlwaysOnNeverSleeps(t *testing.T) {
	s := sim.New(1)
	res := Run(s, radio.WLAN80211b(), AlwaysOn{}, burstyTrace(5, 10, 2*sim.Second))
	if res.Sleeps != 0 {
		t.Errorf("always-on slept %d times", res.Sleeps)
	}
	if res.MeanDelay != 0 {
		t.Errorf("always-on added delay %v", res.MeanDelay)
	}
	if res.SleepFraction != 0 {
		t.Error("always-on sleep fraction nonzero")
	}
}

func TestTimeoutSavesEnergy(t *testing.T) {
	trace := burstyTrace(10, 20, 5*sim.Second)
	run := func(p Policy) RunResult {
		s := sim.New(2)
		return Run(s, radio.WLAN80211b(), p, trace)
	}
	on := run(AlwaysOn{})
	to := run(&FixedTimeout{Timeout: 100 * sim.Millisecond})
	if to.EnergyJ >= on.EnergyJ/2 {
		t.Errorf("timeout energy %.1f J should be well below always-on %.1f J", to.EnergyJ, on.EnergyJ)
	}
	if to.Sleeps == 0 {
		t.Error("timeout policy never slept")
	}
	if to.Served != on.Served {
		t.Errorf("served %d vs %d: policies must not lose work", to.Served, on.Served)
	}
}

func TestTimeoutAddsWakeLatency(t *testing.T) {
	trace := burstyTrace(10, 5, 5*sim.Second)
	s := sim.New(3)
	res := Run(s, radio.WLAN80211b(), &FixedTimeout{Timeout: 50 * sim.Millisecond}, trace)
	// First request of each burst pays the 2 ms sleep→idle wake.
	if res.MaxDelay < 2*sim.Millisecond {
		t.Errorf("max delay = %v, want ≥ 2ms wake latency", res.MaxDelay)
	}
}

func TestOracleBeatsRealizablePolicies(t *testing.T) {
	trace := burstyTrace(20, 10, 3*sim.Second)
	profile := radio.WLAN80211b()
	run := func(p Policy) RunResult {
		s := sim.New(4)
		return Run(s, profile, p, trace)
	}
	oracle := run(NewOracle(profile))
	timeout := run(&FixedTimeout{Timeout: 200 * sim.Millisecond})
	adaptive := run(NewAdaptiveTimeout(profile, 10*sim.Millisecond, sim.Second))
	pred := run(NewPredictive(profile, 0.3))
	for _, r := range []RunResult{timeout, adaptive, pred} {
		if oracle.EnergyJ > r.EnergyJ*1.02 {
			t.Errorf("oracle %.2f J worse than %s %.2f J", oracle.EnergyJ, r.Policy, r.EnergyJ)
		}
	}
	// And the oracle adds no unnecessary sleeps inside bursts.
	if oracle.MeanDelay > 3*sim.Millisecond {
		t.Errorf("oracle mean delay %v too high", oracle.MeanDelay)
	}
}

func TestAdaptiveTimeoutAdapts(t *testing.T) {
	profile := radio.WLAN80211b()
	p := NewAdaptiveTimeout(profile, 10*sim.Millisecond, sim.Second)
	start := p.Current()
	// Feed long idle periods: the timeout should shrink (sleep sooner).
	for i := 0; i < 10; i++ {
		p.ObserveIdle(10 * sim.Second)
	}
	if p.Current() >= start {
		t.Errorf("timeout did not shrink after long idles: %v -> %v", start, p.Current())
	}
	// Feed barely-past-timeout idles: it should grow back.
	shrunk := p.Current()
	for i := 0; i < 10; i++ {
		p.ObserveIdle(shrunk + sim.Millisecond)
	}
	if p.Current() <= shrunk {
		t.Errorf("timeout did not grow after premature sleeps: %v stayed", shrunk)
	}
}

func TestPredictiveSleepsImmediatelyOnLongIdlePattern(t *testing.T) {
	profile := radio.WLAN80211b()
	p := NewPredictive(profile, 0.5)
	for i := 0; i < 5; i++ {
		p.ObserveIdle(5 * sim.Second)
	}
	if d := p.SleepDelay(sim.MaxTime); d != 0 {
		t.Errorf("predictive should sleep immediately after long-idle history, got %v", d)
	}
}

func TestPredictiveHedgesOnShortIdlePattern(t *testing.T) {
	profile := radio.WLAN80211b()
	p := NewPredictive(profile, 0.5)
	for i := 0; i < 5; i++ {
		p.ObserveIdle(sim.Millisecond)
	}
	if d := p.SleepDelay(sim.MaxTime); d == 0 {
		t.Error("predictive should hedge when predicted idle is below breakeven")
	}
}

func TestOracleSkipsShortIdles(t *testing.T) {
	profile := radio.WLAN80211b()
	o := NewOracle(profile)
	if d := o.SleepDelay(sim.Millisecond); d != sim.MaxTime {
		t.Errorf("oracle slept for an idle below breakeven: %v", d)
	}
	if d := o.SleepDelay(10 * sim.Second); d != 0 {
		t.Errorf("oracle hesitated on a long idle: %v", d)
	}
}

func TestPoliciesServeAllRequests(t *testing.T) {
	trace := burstyTrace(15, 8, 2*sim.Second)
	profile := radio.WLAN80211b()
	policies := []Policy{
		AlwaysOn{},
		&FixedTimeout{Timeout: 20 * sim.Millisecond},
		NewAdaptiveTimeout(profile, 10*sim.Millisecond, sim.Second),
		NewPredictive(profile, 0.3),
		NewOracle(profile),
	}
	for _, p := range policies {
		s := sim.New(5)
		res := Run(s, profile, p, trace)
		if res.Served != len(trace) {
			t.Errorf("%s served %d of %d", p.Name(), res.Served, len(trace))
		}
	}
}

func TestEnergyDelayTradeoffAcrossTimeouts(t *testing.T) {
	// Smaller timeouts save more energy but add more delay.
	trace := burstyTrace(20, 10, 4*sim.Second)
	profile := radio.WLAN80211b()
	short := Run(sim.New(6), profile, &FixedTimeout{Timeout: 20 * sim.Millisecond}, trace)
	long := Run(sim.New(6), profile, &FixedTimeout{Timeout: 2 * sim.Second}, trace)
	if short.EnergyJ >= long.EnergyJ {
		t.Errorf("short timeout energy %.2f should beat long %.2f", short.EnergyJ, long.EnergyJ)
	}
	if short.MeanDelay < long.MeanDelay {
		t.Errorf("short timeout delay %v should exceed long %v", short.MeanDelay, long.MeanDelay)
	}
}

// Current returns the present timeout value.
func (p *AdaptiveTimeout) Current() sim.Time { return p.cur }
