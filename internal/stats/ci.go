package stats

import "math"

// tCrit95 holds two-sided 95% critical values of Student's t distribution
// for 1..30 degrees of freedom; beyond the table the normal quantile is an
// adequate approximation.
var tCrit95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student's t critical value for the
// given degrees of freedom (≤ 0 returns 0).
func TCritical95(df int) float64 {
	switch {
	case df <= 0:
		return 0
	case df <= len(tCrit95):
		return tCrit95[df-1]
	default:
		return 1.960
	}
}

// CI95 returns the half-width of the two-sided 95% confidence interval for
// the mean, t·s/√n. With fewer than two samples the interval is undefined
// and the half-width is 0.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return TCritical95(int(s.n-1)) * s.StdDev() / math.Sqrt(float64(s.n))
}
