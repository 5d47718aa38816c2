package xmath

import (
	"hash/fnv"
	"math"
	"math/big"
	"math/bits"
	"testing"
)

// TestTables recomputes every table entry and constant from 200-bit
// series and checks the properties the kernels rely on: invc has at most
// 8 significant bits and keeps |z·invc − 1| below 2⁻⁷ over its subinterval
// (so r is exact), logc is a multiple of 2⁻⁴³, and |logc| exceeds every
// |r| of its subinterval (so for k = 0, hi = w + r loses nothing to lo).
func TestTables(t *testing.T) {
	const prec = 200
	ln2 := bigLn2(prec)
	exact := func(name string, got float64, want *big.Float) {
		t.Helper()
		if w, _ := want.Float64(); got != w {
			t.Errorf("%s = %x, want %x", name, got, w)
		}
	}
	sub := func(a *big.Float, b float64) *big.Float {
		return new(big.Float).SetPrec(prec).Sub(a, bigConst(b, prec))
	}
	n := bigConst(128, prec)
	exact("ln2hi+ln2lo", ln2lo, sub(ln2, ln2hi))
	exact("invLn2N", invLn2N, new(big.Float).SetPrec(prec).Quo(n, ln2))
	ln2N := new(big.Float).SetPrec(prec).Quo(ln2, n)
	exact("ln2hiN+ln2loN", ln2loN, sub(ln2N, ln2hiN))
	if d := sub(ln2, ln2hi); d.Abs(d).Cmp(bigConst(0x1p-43, prec)) > 0 || !multipleOf(ln2hi, -42) {
		t.Errorf("ln2hi %x is not ln 2 rounded to a multiple of 2⁻⁴²", ln2hi)
	}
	if d := sub(ln2N, ln2hiN); d.Abs(d).Cmp(bigConst(0x1p-43, prec)) > 0 || sigBits(ln2hiN) > 35 {
		t.Errorf("ln2hiN %x is not ln 2/128 to 35 significant bits", ln2hiN)
	}

	for i, e := range logTab {
		lo := math.Float64frombits(logOff + uint64(i)<<45)
		hi := math.Float64frombits(logOff + uint64(i+1)<<45)
		if sigBits(e.invc) > 8 {
			t.Errorf("logTab[%d].invc %x has more than 8 significant bits", i, e.invc)
		}
		var maxR float64
		for _, z := range []float64{lo, math.Nextafter(hi, 0)} {
			r := new(big.Float).SetPrec(prec).Mul(bigConst(z, prec), bigConst(e.invc, prec))
			r.Sub(r, bigConst(1, prec))
			rf, _ := r.Float64()
			maxR = math.Max(maxR, math.Abs(rf))
		}
		if maxR >= 0x1p-7 {
			t.Errorf("logTab[%d]: |z·invc − 1| reaches %g ≥ 2⁻⁷", i, maxR)
		}
		logc := bigLog(bigConst(e.invc, prec), prec)
		logc.Neg(logc)
		if !multipleOf(e.logc, -43) || math.Abs(e.logc-mustFloat(logc)) > 0x1p-44 {
			t.Errorf("logTab[%d].logc %x is not log c rounded to a multiple of 2⁻⁴³", i, e.logc)
		}
		exact("logTab.logctail", e.logctail, sub(logc, e.logc))
		if e.logc != 0 && math.Abs(e.logc) <= maxR {
			t.Errorf("logTab[%d]: |logc| %g ≤ max |r| %g", i, math.Abs(e.logc), maxR)
		}
	}
	if e := logTab[80]; e.invc != 1 || e.logc != 0 || e.logctail != 0 {
		t.Errorf("logTab[80] = %v, want c = 1 exactly", e)
	}
	for j, e := range expTab {
		y := new(big.Float).SetPrec(prec).Mul(ln2, bigConst(float64(j)/128, prec))
		want := bigExp(y, prec)
		exact("expTab.hi", e.hi, want)
		d := sub(want, e.hi)
		exact("expTab.tail", e.tail, d.Quo(d, bigConst(e.hi, prec)))
	}
}

func mustFloat(b *big.Float) float64 { f, _ := b.Float64(); return f }

// sigBits returns the number of significant bits of a normal float64.
func sigBits(x float64) int {
	m := math.Float64bits(x)&(1<<52-1) | 1<<52
	return 53 - bits.TrailingZeros64(m)
}

// multipleOf reports whether x is an integer multiple of 2^exp.
func multipleOf(x float64, exp int) bool {
	return x == 0 || math.Ldexp(x, -exp) == math.Trunc(math.Ldexp(x, -exp))
}

// ulps returns the distance between a and b in units in the last place,
// counting across zero; NaN pairs are 0 apart, NaN and a number far.
func ulps(a, b float64) uint64 {
	if a != a || b != b {
		if a != a && b != b {
			return 0
		}
		return math.MaxUint64
	}
	ord := func(x float64) int64 {
		b := int64(math.Float64bits(x))
		if b < 0 {
			return math.MinInt64 - b
		}
		return b
	}
	d := ord(a) - ord(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// ulpErr returns |got − ref| in units in the last place of ref rounded to
// float64 (the subnormal quantum below 2⁻¹⁰²²).
func ulpErr(got float64, ref *big.Float) float64 {
	d := new(big.Float).SetPrec(ref.Prec()).Sub(bigConst(got, ref.Prec()), ref)
	rf := math.Abs(mustFloat(ref))
	ulp := math.Nextafter(rf, math.Inf(1)) - rf
	if math.IsInf(rf, 0) {
		ulp = math.Nextafter(math.MaxFloat64, 0) - math.MaxFloat64
	}
	return math.Abs(mustFloat(d) / ulp)
}

// splitmix64 is a fixed input generator, independent of math/rand.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// unit returns a uniform draw in [0, 1).
func (s *splitmix64) unit() float64 { return float64(s.next()>>11) * 0x1p-53 }

// TestAgainstMath compares Exp and Log with the math package over 10⁷
// inputs per domain. Both sides should be faithfully rounded and so at most
// 1 ulp apart; amd64's assembly math.Exp is up to ~1.5 ulp off, though, so
// where the two differ by more, a 120-bit reference must show this
// package's result below 0.52 ulp and math's above 1.
func TestAgainstMath(t *testing.T) {
	const n = 10_000_000
	g := splitmix64(1)
	for _, d := range []struct {
		name string
		in   func() float64
		f, m func(float64) float64
		ref  func(*big.Float, uint) *big.Float
	}{
		{"Exp [-708, 709]", func() float64 { return g.unit()*1417 - 708 }, Exp, math.Exp, bigExp},
		{"Exp [-1, 1]", func() float64 { return g.unit()*2 - 1 }, Exp, math.Exp, bigExp},
		{"Exp |x| < 2^-20", func() float64 { return (g.unit()*2 - 1) * 0x1p-20 }, Exp, math.Exp, bigExp},
		{"Exp subnormal results [-745, -708.4]", func() float64 { return -708.4 - g.unit()*36.7 }, Exp, math.Exp, bigExp},
		{"Log (0, 1]", func() float64 { return 1 - g.unit() }, Log, math.Log, bigLog},
		{"Log [0.9, 1.1]", func() float64 { return 0.9 + g.unit()*0.2 }, Log, math.Log, bigLog},
		{"Log normal bit patterns", func() float64 {
			for {
				if x := math.Float64frombits(g.next() >> 1); x >= 0x1p-1022 && x <= math.MaxFloat64 {
					return x
				}
			}
		}, Log, math.Log, bigLog},
	} {
		var differ, arbitrated int
		for i := 0; i < n; i++ {
			x := d.in()
			got, want := d.f(x), d.m(x)
			switch u := ulps(got, want); {
			case u == 0:
				continue
			case u > 1:
				ref := d.ref(bigConst(x, 120), 120)
				if e, em := ulpErr(got, ref), ulpErr(want, ref); e > 0.52 || em <= 1 {
					t.Fatalf("%s: x=%x: got %x (%.3f ulp), math %x (%.3f ulp)", d.name, x, got, e, want, em)
				}
				arbitrated++
			}
			differ++
		}
		t.Logf("%s: %d of %d results differ from math's, %d by more than 1 ulp where math is over 1 ulp off", d.name, differ, n, arbitrated)
	}
}

// TestEdges checks special values, subnormals and the overflow and
// underflow thresholds against the limits and a 120-bit reference.
func TestEdges(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	same := func(name string, x, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
			t.Errorf("%s(%v) = %v, want %v", name, x, got, want)
		}
	}
	for _, c := range []struct{ x, want float64 }{
		{0, 1}, {math.Copysign(0, -1), 1}, {inf, inf}, {-inf, 0}, {nan, nan},
		{0x1p-60, 1}, {-0x1p-60, 1}, {5e-324, 1},
		{709.79, inf}, {1000, inf}, {1e300, inf}, {-745.2, 0}, {-1000, 0}, {-1e300, 0},
	} {
		same("Exp", c.x, Exp(c.x), c.want)
	}
	for _, c := range []struct{ x, want float64 }{
		{0, -inf}, {math.Copysign(0, -1), -inf}, {inf, inf}, {-inf, nan}, {nan, nan},
		{-1, nan}, {-5e-324, nan}, {1, 0},
	} {
		same("Log", c.x, Log(c.x), c.want)
	}
	// Finite results near the thresholds and in the subnormal range must
	// be rounded once: within half an ulp (of the subnormal quantum).
	for _, x := range []float64{
		709.78, 709.782712893384, 709.7, 512, 511.99, -512, -708.39, -708.4,
		-720, -740, -744.44, -745.1, -745.1332191019411, 0x1p-54, -0x1p-54, 1, -1,
	} {
		if e := ulpErr(Exp(x), bigExp(bigConst(x, 120), 120)); e > 0.52 {
			t.Errorf("Exp(%v) = %v is %.3f ulp off", x, Exp(x), e)
		}
	}
	if got := Exp(-745.1332191019411); got != 5e-324 {
		t.Errorf("Exp(-745.1332191019411) = %v, want the smallest subnormal", got)
	}
	for _, x := range []float64{
		5e-324, 1e-320, 2.0505285993904e-311, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		math.MaxFloat64, 0.5, 2, math.Nextafter(1, 0), math.Nextafter(1, 2), 1 - 0x1p-9, 1 + 0x1p-8,
	} {
		if e := ulpErr(Log(x), bigLog(bigConst(x, 120), 120)); e > 0.52 {
			t.Errorf("Log(%v) = %v is %.3f ulp off", x, Log(x), e)
		}
	}
	p, q := NewPower(-0.4), NewPower(2.5)
	same("Power(-0.4).Of", 1, p.Of(1), 1)
	same("Power(-0.4).Of", 0, p.Of(0), inf)
	same("Power(2.5).Of", 0, q.Of(0), 0)
	same("Power(-0.4).Of", inf, p.Of(inf), 0)
	same("Power(2.5).Of", inf, q.Of(inf), inf)
	same("Power(-0.4).Of", -1, p.Of(-1), nan)
	same("Power(-0.4).Of", nan, p.Of(nan), nan)
	same("Power(2.5).Of", 1e200, q.Of(1e200), inf)
	same("Power(-0.4).Of", 5e-324, p.Of(5e-324), powRef(5e-324, -0.4))
}

// powRef returns x^e rounded to float64, from a 120-bit reference.
func powRef(x, e float64) float64 { return mustFloat(bigPow(x, e, 120)) }

func bigPow(x, e float64, prec uint) *big.Float {
	y := new(big.Float).SetPrec(prec).Mul(bigConst(e, prec), bigLog(bigConst(x, prec), prec))
	return bigExp(y, prec)
}

// TestPowerAccuracy checks Power.Of against a 96-bit reference over bases
// log-uniform in [2⁻⁵³, 1] (the Pareto sampler's domain) and in [1, 10⁶]
// (the Pareto mean's), for exponents of both signs and up to |e|·|log x|
// ≈ 700. Rounded once, x^e should stay within about 0.52 ulp.
func TestPowerAccuracy(t *testing.T) {
	g := splitmix64(2)
	var worst float64
	for _, e := range []float64{-1 / 1.3, -1 / 0.7, -0.4, 0.7, 2.5, -1.5, 1 - 2.5, -19.5, 37.25} {
		p := NewPower(e)
		for i := 0; i < 4_000; i++ {
			x := math.Exp2(-53 * g.unit())
			if i%2 == 1 {
				x = math.Exp2(19.93 * g.unit())
			}
			got := p.Of(x)
			if math.IsInf(got, 0) || got == 0 {
				continue
			}
			err := ulpErr(got, bigPow(x, e, 96))
			if err > 0.55 {
				t.Errorf("Power(%v).Of(%x) = %x is %.3f ulp off", e, x, got, err)
			}
			worst = math.Max(worst, err)
		}
	}
	t.Logf("worst error %.3f ulp", worst)
}

// TestBitHash pins the output bits of Exp, Log and Power.Of over 10⁶
// fixed inputs each. The package is pure Go with every product rounded on
// its own, so these hashes hold on every CPU and GOARCH and under
// GODEBUG=cpu.fma=off; a change to them is a change to every output path.
func TestBitHash(t *testing.T) {
	g := splitmix64(3)
	h := fnv.New64a()
	var buf [8]byte
	add := func(x float64) {
		b := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	p := NewPower(-1 / 1.3)
	for i := 0; i < 1_000_000; i++ {
		u := g.unit()
		add(Exp(u*1490 - 745))
		add(Log(math.Float64frombits(g.next() >> 1)))
		add(p.Of(1 - u))
	}
	const want uint64 = 0xfc8372735e7aca1a
	if got := h.Sum64(); got != want {
		t.Errorf("bit hash %#x, want %#x", got, want)
	}
}
