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
// and 2³¹−1, the largest bound Intn takes.
func oracleBounds() []int {
	return []int{1, 2, 4, 1 << 20, 1 << 30, 5, 5, 6, 100000, 1<<31 - 1, 3, 7}
}

// withinULP reports whether got is want or one of its float64 neighbours.
func withinULP(got, want float64) bool {
	return got == want || got == math.Nextafter(want, math.Inf(1)) || got == math.Nextafter(want, math.Inf(-1))
}

// randMismatch drives NewRand(seed) and rand.New(rand.NewSource(seed))
// through rounds of the same draws (Intn over bounds, Float64, ExpFloat64)
// and describes the first disagreement, or returns "". Intn and Float64
// must be equal, ExpFloat64 within an ulp, and after every draw the next
// Uint64 of both streams must be equal, so that they consumed the same
// draws.
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
		}
	}
	return ""
}

// TestRandMatchesMathRand is Rand's oracle: math/rand itself, over the
// source's oracle seeds. Each seed takes 40 ExpFloat64 draws, so the run
// covers 80,360 of them; 1,795 of their ziggurat steps (2.2%) take the
// wedge and tail paths that call xmath.
func TestRandMatchesMathRand(t *testing.T) {
	bounds := oracleBounds()
	for _, seed := range oracleSeeds() {
		if d := randMismatch(seed, bounds, 10); d != "" {
			t.Fatal(d)
		}
	}
}

// FuzzRandMatchesMathRand compares Rand with math/rand over arbitrary
// seeds and an arbitrary extra Intn bound; a bound outside [1, 2³¹−1],
// which Intn refuses, is mapped into range.
func FuzzRandMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, int32max, math.MinInt64, math.MaxInt64} {
		f.Add(seed, int64(5))
	}
	f.Add(int64(7), int64(int32max))
	f.Fuzz(func(t *testing.T, seed, bound int64) {
		n := 1 + int(uint32(bound)>>2) // some bound in [1, 2³⁰]
		if bound >= 1 && bound <= int32max {
			n = int(bound)
		}
		if d := randMismatch(seed, append(oracleBounds(), n, n), 4); d != "" {
			t.Fatal(d)
		}
	})
}

// TestIntnPanicsOnNonPositive keeps math/rand's contract for n <= 0, and
// Rand's own for bounds past 2³¹−1: Intn has only math/rand's Int31n path.
func TestIntnPanicsOnNonPositive(t *testing.T) {
	bad := []int{0, -1}
	if strconv.IntSize == 64 {
		for _, b := range []int64{1 << 31, math.MaxInt64} {
			bad = append(bad, int(b))
		}
	}
	for _, n := range bad {
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
