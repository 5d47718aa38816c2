package metro

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

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
	rep := run(1, cfg)
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
	rep := run(1, cfg)
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
		a, b := run(7, cfg), run(7, cfg)
		if a != b {
			t.Fatalf("same-seed reruns diverged:\n%+v\n%+v", a, b)
		}
		c := run(8, cfg)
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

// TestGroupIDsContiguous pins the id layout New seeds: the initial
// population's groups, concatenated in group order, are exactly the ids
// 0, 1, …, Stations−1, so each group is one ascending run of consecutive
// ids: the range a churn-free beacon reads from the traffic bitmap.
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

// TestTrafficBitmapInvariant pins the TIM bitmap beacons read on random
// configurations, churn on and off. At random RunUntil splits, before and
// after a flush, a live station's bit is set exactly when its row holds
// buffered frames. A probe queued behind every beacon checks that the
// beacon left no bit set in the groups it served and served no station of
// another listen phase: a beacon that reads a word past either end of a
// group's id range, or reads words for a group whose ids churn scattered,
// fails one of the two.
func TestTrafficBitmapInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		cfg := randomConfig(r)
		s := sim.New(r.Int63())
		m := New(s, cfg)
		m.Start()
		var probe func()
		probe = func() {
			if want := int32(s.Now() / cfg.BeaconInterval); m.beaconIdx != want {
				t.Fatalf("config %d: probe at %v after %d beacons, want %d", i, s.Now(), m.beaconIdx, want)
			}
			checkTrafficBits(t, m, true)
			if s.Now()+cfg.BeaconInterval <= cfg.Horizon {
				s.Schedule(cfg.BeaconInterval, probe)
			}
		}
		s.Schedule(cfg.BeaconInterval, probe) // queued behind the first beacon
		for at := sim.Time(0); at < cfg.Horizon; {
			at = min(cfg.Horizon, at+1+sim.Time(r.Int63n(int64(cfg.BeaconInterval))))
			s.RunUntil(at)
			checkTrafficBits(t, m, false)
			m.flush()
			checkTrafficBits(t, m, false)
		}
	}
}

// checkTrafficBits asserts that every live station's traffic bit is set
// exactly when its row holds buffered frames. Right after a beacon it also
// asserts that the due listen phase's stations hold no bit and that no
// station of another phase was served.
func checkTrafficBits(t *testing.T, m *Model, afterBeacon bool) {
	t.Helper()
	k := m.cfg.ListenInterval
	due := int(m.beaconIdx % int32(k))
	for g, grp := range m.groups {
		for _, id := range grp {
			st := &m.sta[id]
			set := m.tim[id>>6]>>(id&63)&1 == 1
			switch {
			case set != (st.pendFrames > 0):
				t.Fatalf("%v, beacon %d: station %d has bit %v and %d pending frames",
					m.s.Now(), m.beaconIdx, id, set, st.pendFrames)
			case afterBeacon && g%k == due && set:
				t.Fatalf("%v: beacon %d served phase %d but station %d keeps its bit",
					m.s.Now(), m.beaconIdx, due, id)
			case afterBeacon && g%k != due && st.lastFrame == m.beaconIdx:
				t.Fatalf("%v: beacon %d of phase %d served station %d of phase %d",
					m.s.Now(), m.beaconIdx, due, id, g%k)
			}
		}
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
		{"Profile sleep power NaN", func(c *Config) { c.Profile = radio.WLAN80211b(); c.Profile.Power[radio.Sleep] = nan }},
		{"Profile sleep power +Inf", func(c *Config) { c.Profile = radio.WLAN80211b(); c.Profile.Power[radio.Sleep] = inf }},
		{"ListenInterval above 65535", func(c *Config) { c.ListenInterval = 65536 }},
		{"wake groups beyond int32", func(c *Config) { c.APs, c.ListenInterval = 1<<16, 1<<15 }},
	}
	if strconv.IntSize == 64 { // a 32-bit int cannot pass the int32 id space
		cases = append(cases, struct {
			name string
			bad  func(*Config)
		}{"MaxStations beyond int32 ids", func(c *Config) { c.MaxStations = math.MaxInt }})
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

// TestHugeGroupCountRejectedBeforeAllocation pins the group-count bound:
// New sizes one slice per (AP, wake phase) group, so a huge ListenInterval
// or AP count must fail Validate, and New must panic with that error
// without allocating the group table.
func TestHugeGroupCountRejectedBeforeAllocation(t *testing.T) {
	for name, bad := range map[string]func(*Config){
		"ListenInterval MaxInt": func(c *Config) { c.ListenInterval = math.MaxInt },
		"APs MaxInt":            func(c *Config) { c.APs = math.MaxInt },
	} {
		cfg := testConfig()
		bad(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted it", name)
		}
		// New may allocate its error message, nothing of the model.
		s := sim.New(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		func() {
			defer func() { _ = recover() }()
			New(s, cfg)
		}()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<10 {
			t.Errorf("%s: New allocated %d bytes before rejecting it", name, grew)
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
		if got := run(seed, cfg); got != want {
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

// tieConfig is a cell whose downlink gaps all floor to one time unit: a
// frame arrives at every microsecond, so frames land on every beacon,
// join, death and RunUntil instant, and the arrival log fills up between
// beacons.
func tieConfig(churn bool) Config {
	cfg := Config{
		APs:            2,
		Stations:       6,
		BeaconInterval: 3 * sim.Millisecond,
		ListenInterval: 2,
		WakeLead:       200 * sim.Microsecond,
		BeaconAir:      100 * sim.Microsecond,
		PollAir:        5 * sim.Microsecond,
		OverheadBytes:  28,
		RatePerStation: 1e12,
		Frame:          Pareto{Alpha: 1.5, MinBytes: 40, MaxBytes: 400},
		Horizon:        8*3*sim.Millisecond + 1500*sim.Microsecond,
		Profile:        radio.WLAN80211b(),
	}
	if churn {
		cfg.MaxStations = 10
		cfg.ArrivalRate = 2e4
		cfg.MeanLifetime = sim.Millisecond
	}
	return cfg
}

// drawnFrames counts the downlink frames the model has drawn for live
// stations: delivered, logged or buffered.
func drawnFrames(m *Model) int64 {
	n := m.rep.DeliveredFrames + int64(len(m.arrivals))
	for _, st := range m.sta {
		n += int64(st.pendFrames)
	}
	return n
}

// TestFrameStretchTiesAndSplits runs the frame stream where every instant
// holds an arrival, so each stretch ends exactly on a beacon, a join, a
// death or a RunUntil split. The model runs in random splits, half of them
// on beacon instants, and its report must equal the per-frame-event
// reference's, bit for bit. Without churn, the frames drawn by each split
// must also match the reference's: no stretch may draw past a split.
func TestFrameStretchTiesAndSplits(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, churn := range []bool{false, true} {
		cfg := tieConfig(churn)
		for trial := 0; trial < 20; trial++ {
			seed := r.Int63()
			want, _ := refRun(seed, cfg)
			s, rs := sim.New(seed), sim.New(seed)
			m, ref := New(s, cfg), newRef(rs, cfg)
			m.Start()
			ref.start()
			for at := sim.Time(0); at < cfg.Horizon; {
				if r.Intn(2) == 0 {
					at = (at/cfg.BeaconInterval + 1) * cfg.BeaconInterval
				} else {
					at += 1 + sim.Time(r.Intn(int(cfg.BeaconInterval)))
				}
				at = min(at, cfg.Horizon)
				s.RunUntil(at)
				rs.RunUntil(at)
				if churn {
					continue
				}
				refDrawn := ref.rep.DeliveredFrames
				for _, f := range ref.pendFrames {
					refDrawn += int64(f)
				}
				if got := drawnFrames(m); got != refDrawn || got != int64(at) {
					t.Fatalf("seed %d, split at %v: %d frames drawn, reference %d, one per instant %d",
						seed, at, got, refDrawn, at)
				}
			}
			if got := m.Finish(); got != want {
				t.Fatalf("churn %v, seed %d:\n got %+v\nwant %+v", churn, seed, got, want)
			}
		}
	}
}

// TestFrameStretchStopsAtHorizon runs a model under Run, whose horizon is
// MaxTime, so once the beacons end nothing else bounds a stretch. The
// frame stream must fall back to one event per frame past Horizon and trip
// the event limit, not spin inside one event.
func TestFrameStretchStopsAtHorizon(t *testing.T) {
	cfg := testConfig()
	cfg.Stations, cfg.Horizon = 100, 2*sim.Second
	s := sim.New(1)
	New(s, cfg).Start()
	s.SetEventLimit(10_000)
	// Run on its own goroutine so that a stretch that never ends fails
	// the test instead of hanging it.
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		s.Run()
	}()
	select {
	case p := <-done:
		if msg, _ := p.(string); !strings.Contains(msg, "event limit") {
			t.Fatalf("Run ended with %v, want the event-limit panic", p)
		}
		if s.Now() <= cfg.Horizon {
			t.Fatalf("event limit tripped at %v, before the %v horizon", s.Now(), cfg.Horizon)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run past the horizon did not reach the event limit: a frame stretch runs unbounded")
	}
}

// TestFrameStreamFiresOncePerBeacon pins the event budget of an
// e20-shaped cell, about 2000 frames per beacon interval: the downlink
// stream fires once per stretch between beacons, not once per frame.
func TestFrameStreamFiresOncePerBeacon(t *testing.T) {
	cfg := testConfig()
	cfg.APs, cfg.Stations, cfg.Horizon = 20, 100_000, 10*sim.Second
	s := sim.New(1)
	m := New(s, cfg)
	m.Start()
	s.RunUntil(cfg.Horizon)
	beacons := uint64(cfg.Horizon / cfg.BeaconInterval)
	if rep := m.Finish(); rep.DeliveredFrames < 1000*int64(beacons) {
		t.Fatalf("only %d frames delivered over %d beacons", rep.DeliveredFrames, beacons)
	}
	if s.Fired() > 2*beacons+1 {
		t.Errorf("%d events fired over %d beacons, want at most %d", s.Fired(), beacons, 2*beacons+1)
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

// run executes the configuration on a fresh simulator. Experiments embed
// the model in their own simulator via New.
func run(seed int64, cfg Config) Report {
	s := sim.New(seed)
	m := New(s, cfg)
	m.Start()
	s.RunUntil(cfg.Horizon)
	return m.Finish()
}

// Sample inverts the CDF at u ∈ [0, 1).
func (p Pareto) Sample(u float64) float64 {
	return p.sampler().sample(u)
}
