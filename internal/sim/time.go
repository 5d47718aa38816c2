// Package sim provides a deterministic discrete-event simulation kernel.
//
// All simulated subsystems in this repository (radios, MAC protocols,
// channels, schedulers) are driven by a single Simulator instance. Time is
// represented as an integer count of microseconds so that event ordering is
// exact and runs are bit-reproducible for a given seed. Pending events wait
// in one (at, seq)-ordered binary heap behind a front register; the kernel
// has no tuning knobs.
//
// Randomness comes from Rand, a concrete stream (Simulator.Rand, or
// NewRand for a stream of its own) over the package's own copy of
// math/rand's additive lagged-Fibonacci source. The source draws exactly
// math/rand's bits but seeds with a jump-ahead Lehmer step, about 3.5
// times faster than rand.NewSource's 1,841 sequential steps; seeding was
// a seventh of the CPU of a 0.1 ms Hotspot job. Rand exports the four
// draws models use: Intn and Float64 return math/rand's exact values;
// ExpFloat64 and NormFloat64 are math/rand's ziggurats over
// internal/xmath, so their rare tail paths give the same bits on every
// CPU, within an ulp of math/rand's.
// TestSourceMatchesMathRand, TestRandMatchesMathRand and their fuzz twins
// compare both with math/rand itself.
package sim

import "fmt"

// Time is a simulated instant or duration, measured in microseconds from the
// start of the simulation. Using an integer representation keeps event
// ordering exact across platforms.
type Time int64

// Common durations.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// MaxTime is the largest representable simulation time. It is used as an
// "infinitely far in the future" sentinel by schedulers and timers.
const MaxTime Time = 1<<63 - 1

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts t to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds builds a Time from floating-point seconds, rounding to the
// nearest microsecond. The explicit float64 conversions keep Go from fusing
// the product and the half-microsecond offset into one FMA on arm64, which
// would round ties differently than amd64 does.
func FromSeconds(s float64) Time {
	if s < 0 {
		return Time(float64(s*float64(Second)) - 0.5)
	}
	return Time(float64(s*float64(Second)) + 0.5)
}

// String renders the time with a unit that keeps the value readable.
func (t Time) String() string {
	switch {
	case t == MaxTime:
		return "+inf"
	case t < 0 && t != -MaxTime-1: // negating the most negative Time overflows back to itself
		return "-" + (-t).String()
	case t < Millisecond:
		return fmt.Sprintf("%dus", int64(t))
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t < Minute:
		return fmt.Sprintf("%.3fs", t.Seconds())
	default:
		return fmt.Sprintf("%.1fs", t.Seconds())
	}
}

// Max returns the larger of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
