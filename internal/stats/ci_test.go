package stats

import (
	"math"
	"testing"
)

func TestTCritical95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{0, 0}, {-3, 0},
		{1, 12.706}, {4, 2.776}, {10, 2.228}, {30, 2.042},
		{31, 1.960}, {1000, 1.960},
	}
	for _, c := range cases {
		if got := TCritical95(c.df); got != c.want {
			t.Errorf("TCritical95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
}

func TestMeanCI95(t *testing.T) {
	mean, half := MeanCI95([]float64{1, 2, 3, 4, 5})
	if mean != 3 {
		t.Errorf("mean = %v, want 3", mean)
	}
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5) // t(4)·s/√n
	if math.Abs(half-want) > 1e-12 {
		t.Errorf("half-width = %v, want %v", half, want)
	}
}

func TestMeanCI95Degenerate(t *testing.T) {
	if mean, half := MeanCI95(nil); mean != 0 || half != 0 {
		t.Errorf("empty input: mean %v half %v, want 0, 0", mean, half)
	}
	if mean, half := MeanCI95([]float64{7}); mean != 7 || half != 0 {
		t.Errorf("single sample: mean %v half %v, want 7, 0", mean, half)
	}
	// Identical samples: zero variance, zero interval.
	if mean, half := MeanCI95([]float64{2, 2, 2, 2}); mean != 2 || half != 0 {
		t.Errorf("constant samples: mean %v half %v, want 2, 0", mean, half)
	}
}

func TestSummaryCI95MatchesMeanCI95(t *testing.T) {
	xs := []float64{0.3, 1.7, 2.9, 0.4, 5.5, 3.1, 2.2}
	var s Summary
	for _, x := range xs {
		s.Add(x)
	}
	_, half := MeanCI95(xs)
	if math.Abs(s.CI95()-half) > 1e-12 {
		t.Errorf("Summary.CI95 %v != MeanCI95 %v", s.CI95(), half)
	}
	// The interval should cover the true mean for a well-behaved sample:
	// sanity-check width is positive and below the full range.
	if !(half > 0 && half < s.Max()-s.Min()) {
		t.Errorf("implausible half-width %v for range [%v, %v]", half, s.Min(), s.Max())
	}
}

// MeanCI95 returns the sample mean of xs and the half-width of its 95%
// confidence interval: the slice-shaped form of Summary.CI95 (which the
// scenario Runner uses for its streaming multi-seed aggregation), kept
// here because only these tests take a slice.
func MeanCI95(xs []float64) (mean, half float64) {
	var s Summary
	for _, x := range xs {
		s.Add(x)
	}
	return s.Mean(), s.CI95()
}
