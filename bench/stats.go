package main

import "sort"

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the two middle samples
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method
// of Python's statistics.quantiles(xs, n=4), so a spread computed here
// matches one computed from the same samples there. A single sample is its
// own quartiles; no samples give zeros.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// tail returns the highest percentile that still has at least ten samples
// beyond it, and the sample at that percentile. With n samples that is the
// (n−10)-th smallest sample, the 100·(n−10)/n-th percentile; ok is false
// when there are fewer than eleven samples, and no tail can be stated.
func tail(xs []float64) (pct, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	return 100 * float64(n-10) / float64(n), sorted(xs)[n-11], true
}
