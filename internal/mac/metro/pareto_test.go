package metro

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/big"
	"testing"

	"repro/internal/sim"
)

// paretoCases are the frame-size distributions the sampler tests cover:
// the test cell's, a heavier tail on Ethernet-sized frames, and a
// light tail over six decades, whose base 1 − u·span reaches 2⁻⁵³.
func paretoCases() []Pareto {
	return []Pareto{
		testConfig().Frame,
		{Alpha: 0.7, MinBytes: 40, MaxBytes: 1500},
		{Alpha: 2.5, MinBytes: 1, MaxBytes: 1e6},
	}
}

// TestParetoSamplerAccuracy checks the inverse-CDF sampler against a
// 90-bit math/big evaluation of l·x^(−1/α) at the sampler's own base
// x = 1 − u·span, for u ∈ {0, ½, 1⁻} and 10⁵ draws per distribution. The
// bound is 8 ulp; math.Pow's own error here reaches several ulp, while the
// sampler's stays near 1 (one rounded power, then the product with l).
func TestParetoSamplerAccuracy(t *testing.T) {
	for _, p := range paretoCases() {
		t.Run(fmt.Sprintf("alpha=%g", p.Alpha), func(t *testing.T) {
			t.Parallel()
			s := p.sampler()
			e := -1 / p.Alpha
			r := sim.New(1).Rand()
			us := []float64{0, 0.5, math.Nextafter(1, 0)}
			for i := 0; i < 100_000; i++ {
				us = append(us, r.Float64())
			}
			var worst float64
			for _, u := range us {
				got := s.sample(u)
				if got != p.Sample(u) {
					t.Fatalf("%+v: Sample(%v) = %v, sampler %v", p, u, p.Sample(u), got)
				}
				ref := powRef(1-float64(u*s.span), e)
				err := ulpErr(got, ref.Mul(ref, bigF(p.MinBytes)))
				if err > 8 {
					t.Fatalf("%+v: sample(%v) = %v is %.2f ulp from l·x^e", p, u, got, err)
				}
				worst = math.Max(worst, err)
			}
			t.Logf("%+v: worst %.3f ulp", p, worst)
		})
	}
}

// TestParetoSamplerBitHash pins the bits of 10⁶ sampler outputs, drawn
// round-robin from the three distributions with seed 1's stream. The
// sampler is built on package xmath, so the hash holds on every CPU and
// GOARCH and under GODEBUG=cpu.fma=off.
func TestParetoSamplerBitHash(t *testing.T) {
	var samplers []paretoSampler
	for _, p := range paretoCases() {
		samplers = append(samplers, p.sampler())
	}
	r := sim.New(1).Rand()
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 1_000_000; i++ {
		b := math.Float64bits(samplers[i%3].sample(r.Float64()))
		for j := range buf {
			buf[j] = byte(b >> (8 * j))
		}
		h.Write(buf[:])
	}
	const want uint64 = 0x47f1111d282e6386
	if got := h.Sum64(); got != want {
		t.Errorf("sampler bit hash %#x, want %#x", got, want)
	}
}

// refPrec is the working precision of powRef, in bits.
const refPrec = 96

func bigF(v float64) *big.Float { return new(big.Float).SetPrec(refPrec).SetFloat64(v) }

// recip[n] = 1/n for the series below.
var recip = func() (r [128]*big.Float) {
	for n := 1; n < len(r); n++ {
		r[n] = new(big.Float).SetPrec(refPrec).Quo(bigF(1), bigF(float64(n)))
	}
	return r
}()

// bigLog1 returns log m = 2·Σ t^(2n+1)/(2n+1), t = (m−1)/(m+1), for m
// in [√½, 2] (|t| ≤ 1/3).
func bigLog1(m *big.Float) *big.Float {
	t := new(big.Float).SetPrec(refPrec).Quo(new(big.Float).Sub(m, bigF(1)), new(big.Float).Add(m, bigF(1)))
	t2 := new(big.Float).SetPrec(refPrec).Mul(t, t)
	sum := new(big.Float).SetPrec(refPrec).Set(t)
	pow := new(big.Float).SetPrec(refPrec).Set(t)
	term := new(big.Float).SetPrec(refPrec)
	for n := 3; term.Mul(pow.Mul(pow, t2), recip[n]).Sign() != 0 &&
		term.MantExp(nil) >= sum.MantExp(nil)-refPrec-4; n += 2 {
		sum.Add(sum, term)
	}
	return sum.Add(sum, sum)
}

var bigLn2 = bigLog1(bigF(2)) // t = 1/3

// powRef returns x^e for x > 0 to about 90 bits, as exp(e·log x) by
// series: log x = k·ln2 + log m with x = m·2^k, m ∈ [√½, √2), and
// e^y = 2^j·(e^(r/16))^16 with y = j·ln2 + r.
func powRef(x, e float64) *big.Float {
	m := new(big.Float).SetPrec(refPrec)
	k := bigF(x).MantExp(m)
	if m.Cmp(bigF(math.Sqrt2/2)) < 0 {
		m.SetMantExp(m, 1)
		k--
	}
	y := bigLog1(m)
	y.Add(y, new(big.Float).SetPrec(refPrec).Mul(bigF(float64(k)), bigLn2)).Mul(y, bigF(e))
	q, _ := new(big.Float).Quo(y, bigLn2).Float64()
	j := math.Round(q)
	r := new(big.Float).SetPrec(refPrec).Sub(y, new(big.Float).SetPrec(refPrec).Mul(bigF(j), bigLn2))
	r.SetMantExp(r, -4)
	z, term := bigF(1), bigF(1)
	for n := 1; term.Mul(term.Mul(term, r), recip[n]).Sign() != 0 && term.MantExp(nil) >= -refPrec-4; n++ {
		z.Add(z, term)
	}
	for i := 0; i < 4; i++ {
		z.Mul(z, z)
	}
	return z.SetMantExp(z, int(j))
}

// ulpErr returns |got − ref| in units in the last place of ref.
func ulpErr(got float64, ref *big.Float) float64 {
	rf, _ := ref.Float64()
	ulp := math.Nextafter(math.Abs(rf), math.Inf(1)) - math.Abs(rf)
	d, _ := new(big.Float).SetPrec(ref.Prec()).Sub(new(big.Float).SetFloat64(got), ref).Float64()
	return math.Abs(d / ulp)
}
