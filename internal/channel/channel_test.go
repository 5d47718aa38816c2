package channel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestGEParamsValidate(t *testing.T) {
	good := defaultGE()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []GEParams{
		{MeanGood: 0, MeanBad: sim.Second, BERGood: 1e-6, BERBad: 1e-3},
		{MeanGood: sim.Second, MeanBad: sim.Second, BERGood: 0.7, BERBad: 0.7},
		{MeanGood: sim.Second, MeanBad: sim.Second, BERGood: 1e-3, BERBad: 1e-6},
		{MeanGood: sim.Second, MeanBad: sim.Second, BERGood: -1, BERBad: 1e-3},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestPERFromBER(t *testing.T) {
	if got := PERFromBER(0, 1500); got != 0 {
		t.Errorf("PER(ber=0) = %v, want 0", got)
	}
	if got := PERFromBER(1, 1500); got != 1 {
		t.Errorf("PER(ber=1) = %v, want 1", got)
	}
	// Small-ber approximation: PER ≈ 8n·ber for tiny ber.
	got := PERFromBER(1e-9, 1500)
	want := 8 * 1500 * 1e-9
	if math.Abs(got-want)/want > 1e-3 {
		t.Errorf("PER = %v, want ≈%v", got, want)
	}
	// Monotonic in length.
	if PERFromBER(1e-5, 100) >= PERFromBER(1e-5, 1000) {
		t.Error("PER not monotonic in packet length")
	}
}

// Property: PER is within [0,1] and monotonic in BER.
func TestPERBoundsProperty(t *testing.T) {
	prop := func(berRaw uint32, bytesRaw uint16) bool {
		ber := float64(berRaw%1000000) / 2e6 // [0, 0.5)
		bytes := int(bytesRaw%2304) + 1
		p := PERFromBER(ber, bytes)
		if p < 0 || p > 1 {
			return false
		}
		return PERFromBER(ber/2, bytes) <= p+1e-15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGEStationaryDistribution(t *testing.T) {
	// Empirical state residency should match the analytic stationary
	// distribution: P(good) = meanGood / (meanGood + meanBad).
	p := GEParams{MeanGood: 900 * sim.Millisecond, MeanBad: 100 * sim.Millisecond,
		BERGood: 1e-6, BERBad: 1e-3}
	s := sim.New(3)
	ch := NewGilbertElliott(s, p)
	r := sampleStates(s, ch)
	s.RunUntil(2000 * sim.Second)
	fracGood := float64(r.good) / float64(r.samples)
	if math.Abs(fracGood-0.9) > 0.03 {
		t.Errorf("good fraction = %.3f, want 0.9±0.03", fracGood)
	}
	if r.changes < 100 {
		t.Errorf("only %d changes in 2000s; state process seems stuck", r.changes)
	}
}

func TestGEFreezeAndForce(t *testing.T) {
	s := sim.New(1)
	ch := NewGilbertElliott(s, defaultGE())
	ch.Freeze()
	r := sampleStates(s, ch)
	s.Schedule(sim.Second, func() { ch.ForceState(Bad) })
	s.Schedule(2*sim.Second, func() { ch.ForceState(Bad) }) // no-op, same state
	s.Schedule(3*sim.Second, func() { ch.ForceState(Good) })
	s.RunUntil(100 * sim.Second)
	if r.changes != 2 {
		t.Errorf("%d state changes, want exactly 2 (bad, then good)", r.changes)
	}
	if bad := r.samples - r.good; bad != 2000 {
		t.Errorf("%d ms sampled in Bad, want 2000", bad)
	}
}

func TestGEPacketErrorRates(t *testing.T) {
	s := sim.New(5)
	p := GEParams{MeanGood: sim.Hour, MeanBad: sim.Second, BERGood: 1e-5, BERBad: 1e-3}
	ch := NewGilbertElliott(s, p)
	ch.Freeze() // stay in Good
	n, errs := 20000, 0
	for i := 0; i < n; i++ {
		if ch.SamplePacketError(1500) {
			errs++
		}
	}
	want := PERFromBER(1e-5, 1500)
	got := float64(errs) / float64(n)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical PER = %.4f, want %.4f±0.01", got, want)
	}
	ch.ForceState(Bad)
	errs = 0
	for i := 0; i < n; i++ {
		if ch.SamplePacketError(1500) {
			errs++
		}
	}
	if float64(errs)/float64(n) < 0.9 {
		t.Errorf("bad-state PER = %.3f, want ≈1 for ber=1e-3", float64(errs)/float64(n))
	}
}

func TestSampleBitErrorsMatchesMean(t *testing.T) {
	s := sim.New(7)
	ch := NewGilbertElliott(s, GEParams{MeanGood: sim.Hour, MeanBad: sim.Second,
		BERGood: 1e-3, BERBad: 1e-2})
	ch.Freeze()
	const trials = 5000
	const bytes = 1250 // 10000 bits, mean 10 errors
	var total int
	for i := 0; i < trials; i++ {
		e := ch.SampleBitErrors(bytes)
		if e < 0 || e > bytes*8 {
			t.Fatalf("bit errors %d out of range", e)
		}
		total += e
	}
	mean := float64(total) / trials
	if math.Abs(mean-10) > 0.5 {
		t.Errorf("mean bit errors = %.2f, want 10±0.5", mean)
	}
}

// TestSampleBinomialRareEvents: with an expected count of 1.2e-5 per draw,
// 1,000 draws of Binomial(12000, 1e-9) see no success. The gaps between
// successes run to ~10^10 trials, past a 32-bit int; converted before the
// comparison they wrapped negative and counted ~300 phantom successes.
func TestSampleBinomialRareEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	total := 0
	for i := 0; i < 1000; i++ {
		total += sampleBinomial(rng, 12000, 1e-9)
	}
	if total != 0 {
		t.Errorf("1000 draws of Binomial(12000, 1e-9) summed to %d, want 0", total)
	}
}

func TestPredictorsBasic(t *testing.T) {
	ls := NewLastState()
	if ls.Predict() != Good {
		t.Error("fresh last-state should predict Good")
	}
	ls.Observe(Bad)
	if ls.Predict() != Bad {
		t.Error("last-state should follow observation")
	}
	if ls.Name() == "" || ls.Cost() <= 0 {
		t.Error("metadata missing")
	}
}

func TestMarkovLearnsPersistence(t *testing.T) {
	m := NewMarkov()
	// A strongly persistent channel: long runs of each state.
	seq := []LinkState{}
	for i := 0; i < 50; i++ {
		seq = append(seq, Good)
	}
	seq = append(seq, Bad, Bad, Bad, Bad, Bad)
	for i := 0; i < 50; i++ {
		seq = append(seq, Good)
	}
	for _, s := range seq {
		m.Observe(s)
	}
	m.Observe(Good)
	if m.Predict() != Good {
		t.Error("markov should predict persistence after long good runs")
	}
	if p := m.TransitionProb(Good, Good); p < 0.9 {
		t.Errorf("P(good->good) = %.3f, want > 0.9", p)
	}
}

func TestMarkovLearnsAlternation(t *testing.T) {
	m := NewMarkov()
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			m.Observe(Good)
		} else {
			m.Observe(Bad)
		}
	}
	// After observing Bad at i=99, an alternating channel goes Good next.
	if m.Predict() != Good {
		t.Error("markov failed to learn alternation")
	}
}

func TestWindowMajority(t *testing.T) {
	w := NewWindow(5)
	if w.Predict() != Good {
		t.Error("empty window should default to Good")
	}
	for _, s := range []LinkState{Bad, Bad, Bad, Good, Good} {
		w.Observe(s)
	}
	if w.Predict() != Bad {
		t.Error("window majority should be Bad (3/5)")
	}
	// Rolling over: three more Goods displace the Bads.
	w.Observe(Good)
	w.Observe(Good)
	w.Observe(Good)
	if w.Predict() != Good {
		t.Error("window should have rolled to Good majority")
	}
}

func TestWindowInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWindow(0) did not panic")
		}
	}()
	NewWindow(0)
}

func TestOracle(t *testing.T) {
	o := NewOracle()
	o.Prime(Bad)
	if o.Predict() != Bad {
		t.Error("oracle ignored priming")
	}
	if o.Cost() != 0 {
		t.Error("oracle should be free")
	}
}

func TestAccuracyAccounting(t *testing.T) {
	var a Accuracy
	a.Record(Good, Good)
	a.Record(Bad, Good)
	a.Record(Bad, Bad)
	if a.Hits != 2 || a.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", a.Hits, a.Misses)
	}
	if math.Abs(a.Rate()-2.0/3.0) > 1e-12 {
		t.Errorf("rate = %v", a.Rate())
	}
	var empty Accuracy
	if empty.Rate() != 0 {
		t.Error("empty accuracy should be 0")
	}
}

func TestPredictorAccuracyOnPersistentChannel(t *testing.T) {
	// On a highly persistent channel every predictor beats coin-flipping,
	// and the oracle is perfect.
	s := sim.New(11)
	ch := NewGilbertElliott(s, GEParams{MeanGood: 5 * sim.Second,
		MeanBad: 1 * sim.Second, BERGood: 1e-6, BERBad: 1e-3})
	preds := []Predictor{NewLastState(), NewMarkov(), NewWindow(3)}
	accs := make([]Accuracy, len(preds))
	epoch := 100 * sim.Millisecond
	for step := 0; step < 5000; step++ {
		for i, p := range preds {
			pred := p.Predict()
			s.RunUntil(sim.Time(step+1) * epoch)
			actual := ch.State()
			accs[i].Record(pred, actual)
			p.Observe(actual)
		}
	}
	for i, p := range preds {
		if accs[i].Rate() < 0.75 {
			t.Errorf("%s accuracy %.3f, want ≥ 0.75 on persistent channel",
				p.Name(), accs[i].Rate())
		}
	}
}

func TestMonitorGradesChannel(t *testing.T) {
	s := sim.New(1)
	ch := NewGilbertElliott(s, defaultGE())
	ch.Freeze()
	mon := newStoppableMonitor(s, ch)
	s.RunUntil(10 * sim.Second)
	if mon.Quality() != QualityGood {
		t.Errorf("quality on good channel = %v, want good", mon.Quality())
	}
	ch.ForceState(Bad)
	s.RunUntil(20 * sim.Second)
	if mon.Quality() != QualityUnusable {
		t.Errorf("quality after persistent fade = %v, want unusable", mon.Quality())
	}
	ch.ForceState(Good)
	s.RunUntil(30 * sim.Second)
	if mon.Quality() != QualityGood {
		t.Errorf("quality after recovery = %v, want good", mon.Quality())
	}
	// The channel is frozen, so the monitor's probes are the only events.
	if s.Fired() == 0 {
		t.Error("monitor took no probes")
	}
	mon.Stop()
	before := s.Fired()
	s.RunUntil(31 * sim.Second)
	if s.Fired() != before {
		t.Error("monitor still probing after Stop")
	}
}

func TestQualityString(t *testing.T) {
	if QualityGood.String() != "good" || QualityDegraded.String() != "degraded" ||
		QualityUnusable.String() != "unusable" {
		t.Error("quality names wrong")
	}
	if Good.String() != "good" || Bad.String() != "bad" {
		t.Error("link state names wrong")
	}
}

// defaultGE returns a typical indoor-WLAN channel: long good periods with
// occasional half-second fades two orders of magnitude worse.
func defaultGE() GEParams {
	return GEParams{
		MeanGood: 10 * sim.Second,
		MeanBad:  500 * sim.Millisecond,
		BERGood:  1e-6,
		BERBad:   1e-3,
	}
}

// stateSamples counts a channel's state once per simulated millisecond.
type stateSamples struct {
	samples, good, changes int
	last                   LinkState
}

// sampleStates samples ch's state every millisecond from the next one on.
func sampleStates(s *sim.Simulator, ch *GilbertElliott) *stateSamples {
	r := &stateSamples{last: ch.State()}
	sim.NewTicker(s, sim.Millisecond, func() {
		st := ch.State()
		r.samples++
		if st == Good {
			r.good++
		}
		if st != r.last {
			r.changes++
		}
		r.last = st
	})
	return r
}

// TransitionProb returns the estimated probability of moving from state a to
// state b (with Laplace smoothing).
func (p *Markov) TransitionProb(a, b LinkState) float64 {
	total := p.counts[a][Good] + p.counts[a][Bad] + 2
	return (p.counts[a][b] + 1) / total
}

// stoppableMonitor is a group of one monitor, built as NewMonitors builds
// it but keeping the probe ticker, so that a test can stop probing.
type stoppableMonitor struct {
	*Monitor
	ticker *sim.Ticker
}

func newStoppableMonitor(s *sim.Simulator, ch *GilbertElliott) stoppableMonitor {
	g := Monitors{{ch: ch}}
	return stoppableMonitor{&g[0], sim.NewTicker(s, probePeriod, g.probe)}
}

// Stop halts probing.
func (m stoppableMonitor) Stop() { m.ticker.Stop() }
