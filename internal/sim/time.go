// Package sim provides a deterministic discrete-event simulation kernel.
//
// All simulated subsystems in this repository (radios, MAC protocols,
// channels, schedulers) are driven by a single Simulator instance. Time is
// represented as an integer count of microseconds so that event ordering is
// exact and runs are bit-reproducible for a given seed. Pending events wait
// in one (at, seq)-ordered binary heap behind a front register; the kernel
// has no tuning knobs.
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

// Microseconds returns t as an integer number of microseconds.
func (t Time) Microseconds() int64 { return int64(t) }

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

// Min returns the smaller of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
