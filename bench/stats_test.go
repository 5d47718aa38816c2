package main

import "testing"

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4) on the same samples.
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5.5, 1.25, 9, 2, 7.75, 3}, 1.8125, 4.25, 8.0625},
		{[]float64{42}, 42, 42, 42},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("%v: quartiles %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if q1, q3 := quartiles(nil); median(nil) != 0 || q1 != 0 || q3 != 0 {
		t.Errorf("no samples: want zeros")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	if p, v, ok := tail(xs); !ok || p != 90 || v != 90 {
		t.Errorf("100 samples: tail p%v = %v (ok %v), want p90 = 90", p, v, ok)
	}
	if p, v, ok := tail(xs[:11]); !ok || v != 90 || p != 100*1.0/11 {
		t.Errorf("11 samples: tail p%v = %v (ok %v), want the smallest sample, 90", p, v, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Error("10 samples: a tail was stated, but no sample has ten beyond it")
	}
}
