package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// oracleBounds are the Intn bounds the oracle draws with: 1, powers of two
// (the mask path), small and large non-powers of two (the rejection path)
// and 2³¹−1, the largest bound of math/rand's Int31n path. Where int is 64
// bits wide, bounds past 2³¹−1 take math/rand's Int63n path, powers of two
// included.
func oracleBounds() []int {
	bounds := []int{1, 2, 4, 1 << 20, 1 << 30, 5, 5, 6, 100000, 1<<31 - 1, 3, 7}
	if strconv.IntSize == 64 {
		for _, b := range []int64{1 << 31, 1<<31 + 1, 1<<40 + 3, 1 << 62, math.MaxInt64} {
			bounds = append(bounds, int(b))
		}
	}
	return bounds
}

// withinULP reports whether got is want or one of its float64 neighbours.
func withinULP(got, want float64) bool {
	return got == want || got == math.Nextafter(want, math.Inf(1)) || got == math.Nextafter(want, math.Inf(-1))
}

// randMismatch drives NewRand(seed) and rand.New(rand.NewSource(seed))
// through rounds of the same draws (Intn over bounds, Float64, ExpFloat64,
// NormFloat64) and describes the first disagreement, or returns "". Intn
// and Float64 must be equal, the ziggurat draws within an ulp, and after
// every draw the next Uint64 of both streams must be equal, so that they
// consumed the same draws.
func randMismatch(seed int64, bounds []int, rounds int) string {
	ours := NewRand(seed)
	ref := rand.New(rand.NewSource(seed))
	step := 0
	check := func(op string, ok bool, got, want any) string {
		step++
		if !ok {
			return fmt.Sprintf("seed %d step %d: %s = %v, math/rand gives %v", seed, step, op, got, want)
		}
		if g, w := ours.src.Uint64(), ref.Uint64(); g != w {
			return fmt.Sprintf("seed %d step %d: after %s the streams part: next draw %#x, math/rand %#x",
				seed, step, op, g, w)
		}
		return ""
	}
	for k := 0; k < rounds; k++ {
		for _, n := range bounds {
			g, w := ours.Intn(n), ref.Intn(n)
			if d := check(fmt.Sprintf("Intn(%d)", n), g == w, g, w); d != "" {
				return d
			}
		}
		g, w := ours.Float64(), ref.Float64()
		if d := check("Float64", g == w, g, w); d != "" {
			return d
		}
		for i := 0; i < 4; i++ {
			g, w := ours.ExpFloat64(), ref.ExpFloat64()
			if d := check("ExpFloat64", withinULP(g, w), g, w); d != "" {
				return d
			}
			g, w = ours.NormFloat64(), ref.NormFloat64()
			if d := check("NormFloat64", withinULP(g, w), g, w); d != "" {
				return d
			}
		}
	}
	return ""
}

// TestRandMatchesMathRand is Rand's oracle: math/rand itself, over the
// source's oracle seeds. Each seed takes 40 of each ziggurat draw, so the
// run covers some 160k of them, about 4,000 on the wedge and tail paths
// that call xmath (2.2% of exponential and 2.7% of normal draws).
func TestRandMatchesMathRand(t *testing.T) {
	bounds := oracleBounds()
	for _, seed := range oracleSeeds() {
		if d := randMismatch(seed, bounds, 10); d != "" {
			t.Fatal(d)
		}
	}
}

// FuzzRandMatchesMathRand compares Rand with math/rand over arbitrary
// seeds and an arbitrary extra Intn bound.
func FuzzRandMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, int32max, math.MinInt64, math.MaxInt64} {
		f.Add(seed, int64(5))
	}
	f.Add(int64(7), int64(int32max))
	f.Fuzz(func(t *testing.T, seed, bound int64) {
		n := int(bound)
		if int64(n) != bound || n <= 0 {
			n = 1 + int(uint32(bound)>>2) // some bound in [1, 2³⁰]
		}
		if d := randMismatch(seed, append(oracleBounds(), n, n), 4); d != "" {
			t.Fatal(d)
		}
	})
}

// TestIntnPanicsOnNonPositive keeps math/rand's contract.
func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			NewRand(1).Intn(n)
		}()
	}
}
