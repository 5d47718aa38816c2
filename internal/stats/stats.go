// Package stats provides the small statistics toolkit used by every
// experiment in this repository: streaming summaries, histograms,
// time-weighted averages (the right mean for power traces) and plain-text
// table rendering for reproducing the paper's figures as terminal output.
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
	"sort"
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

// AddN records the same sample value n times.
func (s *Summary) AddN(x float64, n int64) {
	for i := int64(0); i < n; i++ {
		s.Add(x)
	}
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

// Sum returns mean*n, the total of all samples.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// String formats the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// TimeWeighted integrates a piecewise-constant signal over time. It is the
// correct way to average a power trace: each level contributes in proportion
// to how long it was held, not how often it changed.
type TimeWeighted struct {
	started   bool
	lastT     float64
	lastV     float64
	integral  float64
	elapsed   float64
	min, max  float64
	haveLevel bool
}

// Set records that the signal changed to value v at time t (seconds).
// The previous value is integrated over [lastT, t].
func (w *TimeWeighted) Set(t, v float64) {
	if w.started {
		if t < w.lastT {
			panic("stats: TimeWeighted time went backwards")
		}
		w.integral += float64(w.lastV * (t - w.lastT))
		w.elapsed += t - w.lastT
	}
	if !w.haveLevel {
		w.min, w.max = v, v
		w.haveLevel = true
	} else {
		if v < w.min {
			w.min = v
		}
		if v > w.max {
			w.max = v
		}
	}
	w.started = true
	w.lastT = t
	w.lastV = v
}

// Finish integrates the current value up to time t and returns the
// time-weighted mean over the whole observation window.
func (w *TimeWeighted) Finish(t float64) float64 {
	if w.started && t > w.lastT {
		w.integral += float64(w.lastV * (t - w.lastT))
		w.elapsed += t - w.lastT
		w.lastT = t
	}
	return w.Mean()
}

// Mean returns the time-weighted mean observed so far.
func (w *TimeWeighted) Mean() float64 {
	if w.elapsed == 0 {
		return 0
	}
	return w.integral / w.elapsed
}

// Integral returns the accumulated value·time product (e.g. joules for a
// power trace measured in watts and seconds).
func (w *TimeWeighted) Integral() float64 { return w.integral }

// Elapsed returns the observed duration in seconds.
func (w *TimeWeighted) Elapsed() float64 { return w.elapsed }

// Min returns the smallest level observed.
func (w *TimeWeighted) Min() float64 { return w.min }

// Max returns the largest level observed.
func (w *TimeWeighted) Max() float64 { return w.max }

// Histogram counts samples into equal-width bins over [lo, hi). Samples
// outside the range land in saturating under/overflow bins so no data is
// silently dropped.
type Histogram struct {
	lo, hi float64
	bins   []int64
	under  int64
	over   int64
	n      int64
	sum    float64
}

// NewHistogram creates a histogram with nbins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 || hi <= lo {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{lo: lo, hi: hi, bins: make([]int64, nbins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.n++
	h.sum += x
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.bins)))
		if i == len(h.bins) { // guard float rounding at the upper edge
			i--
		}
		h.bins[i]++
	}
}

// N returns the number of samples recorded.
func (h *Histogram) N() int64 { return h.n }

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Bin returns the count in bin i.
func (h *Histogram) Bin(i int) int64 { return h.bins[i] }

// NumBins returns the number of interior bins.
func (h *Histogram) NumBins() int { return len(h.bins) }

// Quantile returns an approximate q-quantile (0 ≤ q ≤ 1) assuming samples are
// uniform within each bin. Under/overflow samples clamp to the range edges.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.lo
	}
	if q >= 1 {
		return h.hi
	}
	target := float64(q * float64(h.n))
	cum := float64(h.under)
	if cum >= target {
		return h.lo
	}
	width := (h.hi - h.lo) / float64(len(h.bins))
	for i, c := range h.bins {
		if cum+float64(c) >= target {
			frac := 0.0
			if c > 0 {
				frac = (target - cum) / float64(c)
			}
			return h.lo + float64((float64(i)+frac)*width)
		}
		cum += float64(c)
	}
	return h.hi
}

// Percentile computes an exact percentile of a sample slice (q in [0,1]),
// using linear interpolation between closest ranks. The input is not
// modified.
func Percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := float64(q * float64(len(sorted)-1))
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return float64(sorted[i]*(1-frac)) + float64(sorted[i+1]*frac)
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
