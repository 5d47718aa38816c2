package sim

import (
	"math"
	"math/rand"
	"testing"
)

// oracleDraws is how many Uint64 draws each seed is compared over: past
// 2·rngLen, so both the tap and the feed index wrap the register twice.
const oracleDraws = 1300

// matchesMathRand reports the first draw at which NewRand(seed) and
// math/rand's own source part, or -1 when all oracleDraws agree.
func matchesMathRand(seed int64) (draw int, got, want uint64) {
	ours := NewRand(seed)
	ref := rand.New(rand.NewSource(seed))
	for i := 0; i < oracleDraws; i++ {
		g, w := ours.Uint64(), ref.Uint64()
		if g != w {
			return i, g, w
		}
	}
	return -1, 0, 0
}

// TestSourceMatchesMathRand is the source's oracle: math/rand itself. The
// edge seeds cover the reductions into [1, M−1] (0 and multiples of M map
// to math/rand's fixed 89482311, negatives wrap), the int64 extremes, and
// the rest are random.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, int32max, -int32max, 2 * int32max, 89482311,
		math.MinInt64, math.MaxInt64}
	pick := rand.New(rand.NewSource(20260101))
	for len(seeds) < 2009 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		if i, got, want := matchesMathRand(seed); i >= 0 {
			t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, i, got, want)
		}
	}
}

// TestSourceReseedAndInt63 checks the rest of the rand.Source64 surface:
// Seed restarts the stream and Int63 is Uint64 without its top bit, as in
// math/rand.
func TestSourceReseedAndInt63(t *testing.T) {
	var src source
	src.Seed(7)
	ref := rand.NewSource(7).(rand.Source64)
	for i := 0; i < 10; i++ {
		src.Uint64()
	}
	src.Seed(7)
	for i := 0; i < oracleDraws; i++ {
		if got, want := src.Int63(), ref.Int63(); got != want {
			t.Fatalf("draw %d after reseed: Int63 = %d, math/rand gives %d", i, got, want)
		}
	}
}

// FuzzSourceMatchesMathRand compares the source with math/rand's over
// arbitrary seeds.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, int32max, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if i, got, want := matchesMathRand(seed); i >= 0 {
			t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, i, got, want)
		}
	})
}

// BenchmarkSeed compares the cost of one seeding with math/rand's.
func BenchmarkSeed(b *testing.B) {
	b.Run("sim", func(b *testing.B) {
		var src source
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
}
