// Package channel models the wireless channel: a two-state Gilbert–Elliott
// error process, bit-error-rate to packet-error-rate conversion, channel
// predictors of varying sophistication, and the link-quality monitors the
// Hotspot resource manager consults when deciding which interface a client
// should use. Monitors probe their channels every 250 ms in groups: one
// event per group and period probes every member in creation order, so a
// Hotspot's two interfaces cost one kernel event per period.
package channel

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/xmath"
)

// LinkState identifies the Gilbert–Elliott channel state.
type LinkState int

const (
	// Good is the low-error channel state.
	Good LinkState = iota
	// Bad is the high-error (deep fade / interference) state.
	Bad
)

// String names the state.
func (s LinkState) String() string {
	if s == Good {
		return "good"
	}
	return "bad"
}

// GEParams configures a Gilbert–Elliott channel.
type GEParams struct {
	// MeanGood and MeanBad are the mean sojourn times of the two states.
	// State holding times are exponentially distributed.
	MeanGood sim.Time
	MeanBad  sim.Time
	// BERGood and BERBad are the bit error rates within each state.
	BERGood float64
	BERBad  float64
}

// Validate checks the parameter set.
func (p GEParams) Validate() error {
	if p.MeanGood <= 0 || p.MeanBad <= 0 {
		return fmt.Errorf("channel: sojourn times must be positive")
	}
	for _, b := range []float64{p.BERGood, p.BERBad} {
		if b < 0 || b > 0.5 {
			return fmt.Errorf("channel: BER %g outside [0, 0.5]", b)
		}
	}
	if p.BERBad < p.BERGood {
		return fmt.Errorf("channel: bad-state BER below good-state BER")
	}
	return nil
}

// GilbertElliott is a time-driven two-state Markov channel. State changes
// are scheduled on the simulator; packet-error sampling consults the state
// at transmission time.
type GilbertElliott struct {
	params GEParams
	rng    *rand.Rand
	state  LinkState

	frozen bool       // when scripted control takes over, stop autonomous flips
	flips  *sim.Batch // the autonomous state-transition events (one live at a time)
}

// NewGilbertElliott creates the channel in the Good state and schedules its
// autonomous state process.
func NewGilbertElliott(s *sim.Simulator, p GEParams) *GilbertElliott {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	c := &GilbertElliott{params: p, rng: s.Rand(), state: Good}
	c.flips = s.NewBatch(1)
	c.scheduleFlip()
	return c
}

// State returns the current channel state.
func (c *GilbertElliott) State() LinkState { return c.state }

// BER returns the bit error rate of the current state.
func (c *GilbertElliott) BER() float64 {
	if c.state == Good {
		return c.params.BERGood
	}
	return c.params.BERBad
}

// PacketErrorProb returns the probability that a packet of n bytes suffers at
// least one uncorrected bit error in the current state: 1-(1-ber)^(8n).
func (c *GilbertElliott) PacketErrorProb(bytes int) float64 {
	return PERFromBER(c.BER(), bytes)
}

// SamplePacketError samples whether a packet of n bytes is corrupted.
func (c *GilbertElliott) SamplePacketError(bytes int) bool {
	return c.rng.Float64() < c.PacketErrorProb(bytes)
}

// SampleBitErrors samples how many bit errors land in a block of n bytes,
// using a binomial draw (exact for small n·ber via inversion, normal
// approximation for large counts).
func (c *GilbertElliott) SampleBitErrors(bytes int) int {
	return sampleBinomial(c.rng, bytes*8, c.BER())
}

// Freeze stops the autonomous state process so tests and scripted scenarios
// can control the state explicitly with ForceState.
func (c *GilbertElliott) Freeze() {
	c.frozen = true
	c.flips.CancelAll()
}

// ForceState sets the channel state directly (for scripted scenarios such as
// the paper's "conditions in the link change" episode).
func (c *GilbertElliott) ForceState(s LinkState) { c.state = s }

func (c *GilbertElliott) scheduleFlip() {
	mean := c.params.MeanGood
	if c.state == Bad {
		mean = c.params.MeanBad
	}
	hold := sim.FromSeconds(c.rng.ExpFloat64() * mean.Seconds())
	if hold < sim.Microsecond {
		hold = sim.Microsecond
	}
	c.flips.Schedule(hold, func() {
		if c.frozen {
			return
		}
		if c.state == Good {
			c.state = Bad
		} else {
			c.state = Good
		}
		c.scheduleFlip()
	})
}

// PERFromBER converts a bit error rate into the packet error probability for
// a packet of the given byte length, assuming independent bit errors.
func PERFromBER(ber float64, bytes int) float64 {
	if ber <= 0 || bytes <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	// 1 - (1-ber)^(8*bytes), computed in log space for numerical stability.
	return -math.Expm1(float64(8*bytes) * math.Log1p(-ber))
}

// sampleBinomial draws Binomial(n, p). For small expected counts it uses
// exact inversion; otherwise the normal approximation with clamping.
func sampleBinomial(rng *rand.Rand, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(float64(n) * p) // rounded here: Go may fuse across statements
	if mean < 30 {
		// Inversion by counting exponential gaps between successes.
		count := 0
		logq := math.Log1p(-p)
		i := 0
		for {
			// Float64 scales by 2^-63, which arm64 would fuse with the
			// subtraction; the conversion keeps it a separate rounding.
			gap := math.Floor(xmath.Log(1-float64(rng.Float64())) / logq)
			// Compared as a float: a gap past the remaining trials may not
			// fit an int (a 32-bit int wraps it negative and counts a
			// phantom success).
			if gap >= float64(n-i) {
				break
			}
			i += int(gap) + 1
			count++
		}
		return count
	}
	sd := math.Sqrt(mean * (1 - p))
	x := int(math.Round(mean + float64(sd*rng.NormFloat64())))
	if x < 0 {
		x = 0
	}
	if x > n {
		x = n
	}
	return x
}
