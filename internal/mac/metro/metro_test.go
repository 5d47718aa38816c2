package metro

import (
	"math"
	"testing"

	"repro/internal/radio"
	"repro/internal/sim"
)

// testConfig is a small dense metro cell: 4 APs × 2000 stations, 30 s.
func testConfig() Config {
	return Config{
		APs:            4,
		Stations:       2000,
		BeaconInterval: 100 * sim.Millisecond,
		ListenInterval: 8,
		WakeLead:       2 * sim.Millisecond,
		BeaconAir:      1 * sim.Millisecond,
		PollAir:        200 * sim.Microsecond,
		OverheadBytes:  28,
		RatePerStation: 0.2,
		Frame:          Pareto{Alpha: 1.5, MinBytes: 200, MaxBytes: 15000},
		Horizon:        30 * sim.Second,
		Profile:        radio.WLAN80211b(),
	}
}

func churnConfig() Config {
	c := testConfig()
	c.Stations = 1000
	c.MaxStations = 4096
	c.ArrivalRate = 40 // n̄ = 40 × 25 s = 1000: stationary from t=0
	c.MeanLifetime = 25 * sim.Second
	return c
}

func relErr(sim, model float64) float64 {
	return math.Abs(sim-model) / model * 100
}

// TestDenseMatchesClosedForm pins the simulation to the analytic oracle:
// with 2000 stations over 30 s, the law of large numbers puts every
// aggregate within the advertised tolerance of its exact expectation.
func TestDenseMatchesClosedForm(t *testing.T) {
	cfg := testConfig()
	rep := Run(1, cfg)
	pred := Predict(cfg)

	if rep.Live != cfg.Stations || rep.Arrivals != 0 || rep.Departures != 0 {
		t.Fatalf("population drifted without churn: %+v", rep)
	}
	if got := rep.StationSec; got != pred.StationSec {
		t.Fatalf("StationSec = %g, want %g", got, pred.StationSec)
	}
	checks := []struct {
		name       string
		sim, model float64
	}{
		{"EnergyJ", rep.EnergyJ, pred.EnergyJ},
		{"AvgPowerW", rep.AvgPowerW, pred.AvgPowerW},
		{"ThroughputBps", rep.DeliveredGoodputBps, pred.ThroughputBps},
	}
	for _, c := range checks {
		if e := relErr(c.sim, c.model); e > pred.TolerancePct {
			t.Errorf("%s: sim %g vs model %g (%.2f%% > %.1f%%)",
				c.name, c.sim, c.model, e, pred.TolerancePct)
		} else {
			t.Logf("%s: sim %g vs model %g (%.2f%%)", c.name, c.sim, c.model, e)
		}
	}
}

// TestChurnMatchesClosedForm does the same for the churning population
// against the M/M/∞ steady-state form, at its looser tolerance.
func TestChurnMatchesClosedForm(t *testing.T) {
	cfg := churnConfig()
	rep := Run(1, cfg)
	pred := Predict(cfg)

	if rep.Arrivals == 0 || rep.Departures == 0 {
		t.Fatalf("churn processes did not run: %+v", rep)
	}
	checks := []struct {
		name       string
		sim, model float64
	}{
		{"StationSec", rep.StationSec, pred.StationSec},
		{"AvgPowerW", rep.AvgPowerW, pred.AvgPowerW},
		{"ThroughputBps", rep.DeliveredGoodputBps, pred.ThroughputBps},
	}
	for _, c := range checks {
		if e := relErr(c.sim, c.model); e > pred.TolerancePct {
			t.Errorf("%s: sim %g vs model %g (%.2f%% > %.1f%%)",
				c.name, c.sim, c.model, e, pred.TolerancePct)
		} else {
			t.Logf("%s: sim %g vs model %g (%.2f%%)", c.name, c.sim, c.model, e)
		}
	}
}

// TestDeterministic pins bit-identical reruns: same seed → identical
// report, different seed → different (the model actually uses the RNG).
func TestDeterministic(t *testing.T) {
	for _, cfg := range []Config{testConfig(), churnConfig()} {
		a, b := Run(7, cfg), Run(7, cfg)
		if a != b {
			t.Fatalf("same-seed reruns diverged:\n%+v\n%+v", a, b)
		}
		c := Run(8, cfg)
		if a.EnergyJ == c.EnergyJ && a.DeliveredBytes == c.DeliveredBytes {
			t.Fatalf("different seeds produced identical aggregates")
		}
	}
}

// TestTuningInvariant checks that kernel tuning — including the adaptive
// wheel mode the metro event mix is designed for — is invisible to the
// model's results.
func TestTuningInvariant(t *testing.T) {
	cfg := churnConfig()
	cfg.Horizon = 10 * sim.Second
	run := func(tun sim.Tuning) Report {
		s := sim.NewTuned(3, tun)
		m := New(s, cfg)
		m.Start()
		s.RunUntil(cfg.Horizon)
		return m.Finish()
	}
	base := run(sim.DefaultTuning())
	adaptive := sim.DefaultTuning()
	adaptive.WheelMinPending = sim.WheelAdaptive
	heap := sim.DefaultTuning()
	heap.WheelMinPending = 1 << 20
	if got := run(adaptive); got != base {
		t.Fatalf("adaptive tuning changed results:\n%+v\n%+v", got, base)
	}
	if got := run(heap); got != base {
		t.Fatalf("pure-heap tuning changed results:\n%+v\n%+v", got, base)
	}
}

// TestSteadyStateZeroAlloc pins the tentpole's memory claim: once built and
// warmed, advancing the metro population — beacons, downlink stream, churn,
// TIM service — performs zero allocations per simulated second.
func TestSteadyStateZeroAlloc(t *testing.T) {
	cfg := churnConfig()
	cfg.Horizon = sim.Hour // never reached; the test advances manually
	tun := sim.DefaultTuning()
	tun.WheelMinPending = sim.WheelAdaptive
	s := sim.NewTuned(1, tun)
	m := New(s, cfg)
	m.Start()
	s.RunUntil(2 * sim.Second) // warm: slab, groups, thinning all exercised
	next := s.Now()
	if a := testing.AllocsPerRun(5, func() {
		next += sim.Second
		s.RunUntil(next)
	}); a != 0 {
		t.Errorf("metro steady state allocates %v per simulated second, want 0", a)
	}
}

// TestParetoMoments sanity-checks the bounded Pareto helpers: samples stay
// in range and their mean converges to the closed form.
func TestParetoMoments(t *testing.T) {
	p := Pareto{Alpha: 1.5, MinBytes: 200, MaxBytes: 15000}
	s := sim.New(1)
	r := s.Rand()
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := p.Sample(r.Float64())
		if x < p.MinBytes || x > p.MaxBytes {
			t.Fatalf("sample %g outside [%g, %g]", x, p.MinBytes, p.MaxBytes)
		}
		sum += x
	}
	mean := sum / n
	if e := relErr(mean, p.Mean()); e > 2 {
		t.Errorf("sample mean %g vs closed form %g (%.2f%%)", mean, p.Mean(), e)
	}
}

// TestParetoSamplerBitIdentical pins the one-Pow sampler to the textbook
// bounded-Pareto inverse CDF, written out here as the oracle, bit for bit.
func TestParetoSamplerBitIdentical(t *testing.T) {
	oracle := func(p Pareto, u float64) float64 {
		a, l, h := p.Alpha, p.MinBytes, p.MaxBytes
		return l * math.Pow(1-u*(1-math.Pow(l/h, a)), -1/a)
	}
	r := sim.New(1).Rand()
	for _, p := range []Pareto{
		testConfig().Frame,
		{Alpha: 0.7, MinBytes: 40, MaxBytes: 1500},
		{Alpha: 2.5, MinBytes: 1, MaxBytes: 1e6},
	} {
		us := []float64{0, 0.5, math.Nextafter(1, 0)}
		for i := 0; i < 100_000; i++ {
			us = append(us, r.Float64())
		}
		s := p.sampler()
		for _, u := range us {
			want := math.Float64bits(oracle(p, u))
			if got := math.Float64bits(s.sample(u)); got != want {
				t.Fatalf("%+v: sampler(%v) bits %#x, oracle %#x", p, u, got, want)
			}
			if got := math.Float64bits(p.Sample(u)); got != want {
				t.Fatalf("%+v: Sample(%v) bits %#x, oracle %#x", p, u, got, want)
			}
		}
	}
}

// TestGroupIDsContiguous pins the id layout New seeds: the initial
// population's groups, concatenated in group order, are exactly the ids
// 0, 1, …, Stations−1, so each group is one ascending run of consecutive
// ids and a beacon scans every column sequentially.
func TestGroupIDsContiguous(t *testing.T) {
	e20 := testConfig()
	e20.APs, e20.Stations = 20, 100_000
	for _, cfg := range []Config{testConfig(), e20, churnConfig()} {
		m := New(sim.New(1), cfg)
		next := int32(0)
		for g, grp := range m.groups {
			for _, id := range grp {
				if id != next {
					t.Fatalf("%d stations on %d APs: group %d holds id %d, want %d",
						cfg.Stations, cfg.APs, g, id, next)
				}
				next++
			}
		}
		if int(next) != cfg.Stations {
			t.Fatalf("groups hold %d ids, want %d", next, cfg.Stations)
		}
		checkIndexes(t, m)
	}
}

// TestChurnKeepsIndexesConsistent runs the churning population for its full
// horizon and checks that live, livePos, groups, groupPos and the free list
// still describe the same set of stations.
func TestChurnKeepsIndexesConsistent(t *testing.T) {
	cfg := churnConfig()
	s := sim.New(1)
	m := New(s, cfg)
	m.Start()
	s.RunUntil(cfg.Horizon)
	if m.rep.Arrivals == 0 || m.rep.Departures == 0 {
		t.Fatalf("churn processes did not run: %+v", m.rep)
	}
	checkIndexes(t, m)
}

// checkIndexes asserts the model's id bookkeeping is mutually consistent:
// every live id sits at its livePos in live and at its groupPos in the
// group its AP and phase name, every other id is dead and on the free
// list, and no id appears twice.
func checkIndexes(t *testing.T, m *Model) {
	t.Helper()
	n := m.cfg.cap()
	seen := make([]int, n)
	for j, id := range m.live {
		seen[id]++
		if m.livePos[id] != int32(j) {
			t.Fatalf("live[%d] = %d but livePos[%d] = %d", j, id, id, m.livePos[id])
		}
	}
	grouped := 0
	k := m.cfg.ListenInterval
	for g, grp := range m.groups {
		for p, id := range grp {
			grouped++
			if m.livePos[id] < 0 {
				t.Fatalf("group %d holds dead id %d", g, id)
			}
			if m.groupPos[id] != int32(p) {
				t.Fatalf("groups[%d][%d] = %d but groupPos[%d] = %d", g, p, id, id, m.groupPos[id])
			}
			if int(m.apOf[id])*k+int(m.phaseOf[id]) != g {
				t.Fatalf("id %d (ap %d, phase %d) filed under group %d", id, m.apOf[id], m.phaseOf[id], g)
			}
		}
	}
	if grouped != len(m.live) {
		t.Fatalf("groups hold %d ids, live holds %d", grouped, len(m.live))
	}
	for _, id := range m.freeIDs {
		seen[id]++
		if m.livePos[id] != -1 {
			t.Fatalf("free id %d has livePos %d", id, m.livePos[id])
		}
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("id %d appears %d times across live and the free list", id, c)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.APs = 0 },
		func(c *Config) { c.Stations = -1 },
		func(c *Config) { c.MaxStations = 10 }, // below Stations
		func(c *Config) { c.ListenInterval = 0 },
		func(c *Config) { c.Frame.Alpha = 1 },
		func(c *Config) { c.Frame.MaxBytes = 100 },
		func(c *Config) { c.ArrivalRate = 5; c.MeanLifetime = 0 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Profile = nil },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
