package channel

import "fmt"

// Predictor forecasts the channel state one observation epoch ahead. The
// paper notes the trade-off between "cost and the accuracy of prediction
// versus the energy savings given predicted conditions"; the three
// implementations below span that cost axis.
type Predictor interface {
	// Observe feeds the actual state seen in the epoch that just ended.
	Observe(s LinkState)
	// Predict returns the forecast for the next epoch.
	Predict() LinkState
	// Name identifies the predictor in experiment tables.
	Name() string
	// Cost is an abstract per-epoch computation/energy cost unit used by
	// experiment E9 to weigh accuracy against prediction expense.
	Cost() float64
}

// Accuracy pairs a predictor with hit/miss accounting.
type Accuracy struct {
	Hits, Misses int
}

// Record scores one prediction against the realized state.
func (a *Accuracy) Record(predicted, actual LinkState) {
	if predicted == actual {
		a.Hits++
	} else {
		a.Misses++
	}
}

// Rate returns the fraction of correct predictions.
func (a *Accuracy) Rate() float64 {
	total := a.Hits + a.Misses
	if total == 0 {
		return 0
	}
	return float64(a.Hits) / float64(total)
}

// LastState predicts that the next epoch repeats the last observed state.
// It is the cheapest possible predictor and surprisingly strong on channels
// with long sojourn times.
type LastState struct {
	last LinkState
}

// NewLastState returns a persistence predictor initialized to Good.
func NewLastState() *LastState { return &LastState{last: Good} }

// Observe records the realized state.
func (p *LastState) Observe(s LinkState) { p.last = s }

// Predict returns the previous state.
func (p *LastState) Predict() LinkState { return p.last }

// Name implements Predictor.
func (p *LastState) Name() string { return "last-state" }

// Cost implements Predictor; persistence costs one unit.
func (p *LastState) Cost() float64 { return 1 }

// Markov estimates the 2x2 transition matrix online (with Laplace smoothing)
// and predicts the maximum-likelihood next state.
type Markov struct {
	last   LinkState
	seeded bool
	counts [2][2]float64
}

// NewMarkov returns an online Markov transition-matrix predictor.
func NewMarkov() *Markov { return &Markov{} }

// Observe updates the transition counts.
func (p *Markov) Observe(s LinkState) {
	if p.seeded {
		p.counts[p.last][s]++
	}
	p.last = s
	p.seeded = true
}

// Predict returns the most likely successor of the last state.
func (p *Markov) Predict() LinkState {
	stay := p.counts[p.last][p.last] + 1 // Laplace smoothing
	leave := p.counts[p.last][1-p.last] + 1
	if stay >= leave {
		return p.last
	}
	return 1 - p.last
}

// Name implements Predictor.
func (p *Markov) Name() string { return "markov" }

// Cost implements Predictor; matrix maintenance costs four units.
func (p *Markov) Cost() float64 { return 4 }

// Window predicts the majority state over the most recent w observations.
// It smooths noise but reacts slowly — the "accuracy vs cost vs agility"
// corner of the design space.
type Window struct {
	size int
	buf  []LinkState
	pos  int
	full bool
}

// NewWindow returns a sliding-majority predictor with the given window size.
func NewWindow(size int) *Window {
	if size <= 0 {
		panic(fmt.Sprintf("channel: window size %d must be positive", size))
	}
	return &Window{size: size, buf: make([]LinkState, size)}
}

// Observe appends an observation to the window.
func (p *Window) Observe(s LinkState) {
	p.buf[p.pos] = s
	p.pos = (p.pos + 1) % p.size
	if p.pos == 0 {
		p.full = true
	}
}

// Predict returns the majority state in the window (ties predict Good).
func (p *Window) Predict() LinkState {
	n := p.size
	if !p.full {
		n = p.pos
	}
	if n == 0 {
		return Good
	}
	bad := 0
	for i := 0; i < n; i++ {
		if p.buf[i] == Bad {
			bad++
		}
	}
	if bad*2 > n {
		return Bad
	}
	return Good
}

// Name implements Predictor.
func (p *Window) Name() string { return fmt.Sprintf("window-%d", p.size) }

// Cost implements Predictor; cost scales with window size.
func (p *Window) Cost() float64 { return float64(p.size) }

// Oracle is a perfect predictor used as the upper bound in E9. The caller
// feeds it the future via Prime before asking for predictions.
type Oracle struct {
	next LinkState
}

// NewOracle returns an oracle predictor.
func NewOracle() *Oracle { return &Oracle{} }

// Prime tells the oracle the state of the upcoming epoch.
func (p *Oracle) Prime(s LinkState) { p.next = s }

// Observe implements Predictor (the oracle ignores history).
func (p *Oracle) Observe(LinkState) {}

// Predict returns the primed state.
func (p *Oracle) Predict() LinkState { return p.next }

// Name implements Predictor.
func (p *Oracle) Name() string { return "oracle" }

// Cost implements Predictor. The oracle is free — it bounds achievable
// savings, not a realizable policy.
func (p *Oracle) Cost() float64 { return 0 }
