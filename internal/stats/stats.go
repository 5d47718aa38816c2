// Package stats provides the small statistics toolkit used by every
// experiment in this repository: streaming summaries with 95% confidence
// intervals, Jain's fairness index and plain-text table rendering for
// reproducing the paper's figures as terminal output.
//
// Every product that feeds a sum or difference is wrapped in float64(…),
// also where the product is assigned to a variable first (Go may fuse
// across statements): the explicit rounding forbids fusing it into an FMA,
// which arm64 would otherwise do and amd64 never does, so outputs stay
// bit-identical across architectures.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates a streaming mean/variance/min/max using Welford's
// algorithm, so experiments can record millions of samples without storing
// them.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += float64(d * (x - s.mean))
}

// N returns the number of samples recorded.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean, or 0 with no samples.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// String formats the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// JainFairness computes Jain's fairness index over per-entity allocations:
// (Σx)² / (n·Σx²). It is 1.0 for perfectly equal allocations and approaches
// 1/n under maximal unfairness.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += float64(x * x)
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
