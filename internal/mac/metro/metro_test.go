package metro

import (
	"math"
	"math/rand"
	"strings"
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

// TestSteadyStateZeroAlloc pins the tentpole's memory claim: once built and
// warmed, advancing the metro population — beacons, downlink stream, churn,
// TIM service — performs zero allocations per simulated second. It holds
// for the churning cell and for an e20-shaped dense one (10⁵ stations,
// about 2000 downlink frames per beacon interval), so neither the arrival
// log nor the transition-energy table grows in steady state.
func TestSteadyStateZeroAlloc(t *testing.T) {
	e20 := testConfig()
	e20.APs, e20.Stations = 20, 100_000
	for name, cfg := range map[string]Config{"churn": churnConfig(), "e20": e20} {
		cfg.Horizon = sim.Hour // never reached; the test advances manually
		s := sim.New(1)
		m := New(s, cfg)
		m.Start()
		s.RunUntil(2 * sim.Second) // warm: slab, groups, thinning all exercised
		next := s.Now()
		if a := testing.AllocsPerRun(5, func() {
			next += sim.Second
			s.RunUntil(next)
		}); a != 0 {
			t.Errorf("%s: metro steady state allocates %v per simulated second, want 0", name, a)
		}
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

// TestConfigValidateRejectsEveryBadField covers one bad field per case.
// Before these checks a zero id space with traffic on panicked in Start,
// NaN rates were accepted (a NaN ArrivalRate silently disabled churn), a
// NaN Pareto shape gave a negative energy, and negative airtimes gave
// negative dwell. Every case must now fail in Validate, and New must panic
// with that same error before anything is scheduled.
func TestConfigValidateRejectsEveryBadField(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		bad  func(*Config)
	}{
		{"APs zero", func(c *Config) { c.APs = 0 }},
		{"Stations negative", func(c *Config) { c.Stations = -1 }},
		{"MaxStations below Stations", func(c *Config) { c.MaxStations = 10 }},
		{"MaxStations beyond int32 ids", func(c *Config) { c.MaxStations = math.MaxInt32 + 1 }},
		{"no ids with traffic", func(c *Config) { c.Stations = 0 }},
		{"no ids with churn", func(c *Config) {
			c.Stations, c.RatePerStation, c.ArrivalRate, c.MeanLifetime = 0, 0, 5, sim.Second
		}},
		{"BeaconInterval zero", func(c *Config) { c.BeaconInterval = 0 }},
		{"ListenInterval zero", func(c *Config) { c.ListenInterval = 0 }},
		{"Horizon zero", func(c *Config) { c.Horizon = 0 }},
		{"beacon index overflow", func(c *Config) { c.BeaconInterval, c.Horizon = 1, math.MaxInt32 }},
		{"WakeLead negative", func(c *Config) { c.WakeLead = -sim.Millisecond }},
		{"BeaconAir negative", func(c *Config) { c.BeaconAir = -sim.Millisecond }},
		{"PollAir negative", func(c *Config) { c.PollAir = -sim.Microsecond }},
		{"OverheadBytes negative", func(c *Config) { c.OverheadBytes = -28 }},
		{"RatePerStation negative", func(c *Config) { c.RatePerStation = -0.2 }},
		{"RatePerStation NaN", func(c *Config) { c.RatePerStation = nan }},
		{"RatePerStation +Inf", func(c *Config) { c.RatePerStation = inf }},
		{"Alpha one", func(c *Config) { c.Frame.Alpha = 1 }},
		{"Alpha NaN", func(c *Config) { c.Frame.Alpha = nan }},
		{"Alpha +Inf", func(c *Config) { c.Frame.Alpha = inf }},
		{"MinBytes NaN", func(c *Config) { c.Frame.MinBytes = nan }},
		{"MaxBytes below MinBytes", func(c *Config) { c.Frame.MaxBytes = 100 }},
		{"MaxBytes NaN", func(c *Config) { c.Frame.MaxBytes = nan }},
		{"MaxBytes +Inf", func(c *Config) { c.Frame.MaxBytes = inf }},
		{"ArrivalRate negative", func(c *Config) { c.ArrivalRate = -1; c.MeanLifetime = sim.Second }},
		{"ArrivalRate NaN", func(c *Config) { c.ArrivalRate = nan; c.MeanLifetime = sim.Second }},
		{"ArrivalRate +Inf", func(c *Config) { c.ArrivalRate = inf; c.MeanLifetime = sim.Second }},
		{"MeanLifetime zero under churn", func(c *Config) { c.ArrivalRate = 5; c.MeanLifetime = 0 }},
		{"Profile nil", func(c *Config) { c.Profile = nil }},
		{"Profile bit rate zero", func(c *Config) { c.Profile = radio.WLAN80211b(); c.Profile.BitRate = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.bad(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.HasPrefix(err.Error(), "metro: ") {
				t.Fatalf("Validate = %v, want a metro: error", err)
			}
			defer func() {
				if e, ok := recover().(error); !ok || e.Error() != err.Error() {
					t.Errorf("New panicked with %v, want %v", e, err)
				}
			}()
			New(sim.New(1), cfg)
		})
	}
	// An empty id space is fine while nothing would draw from it.
	idle := testConfig()
	idle.Stations, idle.RatePerStation = 0, 0
	if err := idle.Validate(); err != nil {
		t.Errorf("empty idle population rejected: %v", err)
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

// TestMatchesReference runs the closed-form model and the per-attendance
// reference (ref_test.go) on randomized configurations and requires
// identical reports, every float bit included. The generator mixes churn
// on and off, heavy loads whose poll service spills past the next wake,
// wake leads longer than the listen cycle, both radio profiles and
// horizons that end on a beacon, and the test checks that each gap the
// reference clamps at zero — every correction the closed form makes — was
// exercised often.
func TestMatchesReference(t *testing.T) {
	const configs = 1500
	r := rand.New(rand.NewSource(1))
	var total refClamps
	for i := 0; i < configs; i++ {
		cfg := randomConfig(r)
		seed := r.Int63()
		want, clamps := refRun(seed, cfg)
		if got := Run(seed, cfg); got != want {
			t.Fatalf("config %d (seed %d) %+v:\n got %+v\nwant %+v", i, seed, cfg, got, want)
		}
		total.firstWake += min(clamps.firstWake, 1)
		total.spill += min(clamps.spill, 1)
		total.everyGap += min(clamps.everyGap, 1)
		total.settleLate += min(clamps.settleLate, 1)
	}
	t.Logf("configs exercising each clamp: %+v", total)
	for name, n := range map[string]int{
		"first wake within WakeLead of attach":     total.firstWake,
		"service spilled past the next wake":       total.spill,
		"WakeLead+BeaconAir > K·BeaconInterval":    total.everyGap,
		"settled before the last attendance ended": total.settleLate,
	} {
		if n < configs/20 {
			t.Errorf("only %d of %d configs exercise %q", n, configs, name)
		}
	}
}

// randomConfig draws a small metro configuration for TestMatchesReference.
func randomConfig(r *rand.Rand) Config {
	k := 1 + r.Intn(4)
	bi := sim.Millisecond + sim.Time(r.Intn(int(20*sim.Millisecond)))
	cfg := Config{
		APs:            1 + r.Intn(4),
		Stations:       r.Intn(40),
		BeaconInterval: bi,
		ListenInterval: k,
		WakeLead:       sim.Time(r.Intn(int(3 * sim.Millisecond))),
		BeaconAir:      sim.Time(r.Intn(int(2 * sim.Millisecond))),
		PollAir:        sim.Time(r.Intn(500)),
		OverheadBytes:  r.Intn(60),
		Frame: Pareto{
			Alpha:    []float64{0.7, 1.5, 2.5}[r.Intn(3)],
			MinBytes: float64(40 + r.Intn(460)),
		},
		Profile: radio.WLAN80211b(),
	}
	cfg.Frame.MaxBytes = cfg.Frame.MinBytes * float64(2+r.Intn(40))
	if r.Intn(2) == 0 {
		cfg.Profile = radio.Bluetooth()
	}
	switch r.Intn(4) {
	case 0: // idle cells
	case 1: // heavy load: service runs past the next wake
		cfg.RatePerStation = 100 + 400*r.Float64()
	default:
		cfg.RatePerStation = 30 * r.Float64()
	}
	if r.Intn(5) == 0 { // wake lead beyond the listen cycle: every gap clamps
		cfg.WakeLead = sim.Time(k)*bi + sim.Time(r.Intn(int(bi)))
	}
	if r.Intn(2) == 0 { // churn, with joins landing within WakeLead of beacons
		cfg.MaxStations = cfg.Stations + 1 + r.Intn(24)
		cfg.ArrivalRate = 20 + 300*r.Float64()
		cfg.MeanLifetime = 20*sim.Millisecond + sim.Time(r.Intn(int(2*sim.Second)))
	} else if cfg.Stations == 0 {
		cfg.Stations = 1 + r.Intn(8)
	}
	beacons := sim.Time(1 + r.Intn(60))
	cfg.Horizon = beacons * bi // ends on a beacon
	if r.Intn(2) == 0 {
		cfg.Horizon += sim.Time(r.Intn(int(bi)))
	}
	return cfg
}
