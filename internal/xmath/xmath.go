// Package xmath holds the exponential, logarithm and fixed-exponent power
// that the simulation's output paths use in place of math.Exp, math.Log
// and math.Pow.
//
// The standard library's Exp and Log are assembly on amd64, arm64 and
// s390x, and amd64's Exp picks its code path by the CPU's FMA support, so
// their last bits can differ between hosts. This package is pure Go,
// table-driven and free of assembly, and every product that feeds a sum is
// rounded on its own with float64(…) so that no compiler fuses it into a
// multiply-add. Its results are therefore the same bits on every CPU and
// GOARCH, and under GODEBUG=cpu.fma=off.
//
// Accuracy: Exp and Log are faithfully rounded (error below 1 ulp, about
// 0.51 ulp at worst), so they are within 1 ulp of any other faithfully
// rounded result; amd64's math.Exp itself is up to about 1.5 ulp off, and
// its math.Exp and math.Log misround near overflow and for subnormal
// arguments. Power.Of computes log x to about 2⁻⁶⁶ and its product with
// the exponent in double-double, so x^e stays near 0.51 ulp even where
// |e·log x| is large. No function divides on its per-call path.
package xmath

import "math"

// Constants, as hex-float literals:
//
//	ln2hi + ln2lo   = ln 2, ln2hi a multiple of 2⁻⁴² (k·ln2hi is exact
//	                  for every |k| < 2¹¹)
//	invLn2N         = 128/ln 2
//	ln2hiN + ln2loN = ln 2/128, ln2hiN with 35 significant bits (kd·ln2hiN
//	                  is exact for every |kd| < 2¹⁸)
//	shift           = 1.5·2⁵², which rounds to an integer when added
//	logOff          = the bits of 0.685546875: logTab's first subinterval
const (
	ln2hi   = 0x1.62e42fefa38p-01
	ln2lo   = 0x1.ef35793c7673p-45
	invLn2N = 0x1.71547652b82fep+07
	ln2hiN  = 0x1.62e42fefcp-08
	ln2loN  = -0x1.c610ca86c3899p-44
	shift   = 0x1.8p+52
	logOff  = 0x3fe5f00000000000
)

// Log returns the natural logarithm of x. Special cases are those of
// math.Log: Log(+Inf) = +Inf, Log(±0) = −Inf, Log(x < 0) = NaN and
// Log(NaN) = NaN.
func Log(x float64) float64 {
	hi, lo := logDD(x)
	return lo + hi
}

// logDD returns log x as an unevaluated sum hi + lo accurate to about
// 2⁻⁶⁶ absolute (relative, near x = 1). For x ≤ 0, +Inf and NaN it
// returns Log's special value in hi and 0 in lo.
//
// With x = 2^k·z, z in logTab's range and c the table point of z's
// subinterval, log x = k·ln2 + log c + log1p(r) where r = z/c − 1 =
// z·invc − 1 is exact and |r| < 2⁻⁷, so a degree-8 Taylor polynomial of
// log1p leaves a truncation error below 2⁻⁶⁶.
func logDD(x float64) (hi, lo float64) {
	ix := math.Float64bits(x)
	if top := ix >> 52; top-1 >= 0x7fe { // zero, subnormal, negative, Inf or NaN
		switch {
		case ix<<1 == 0:
			return math.Inf(-1), 0
		case ix == 0x7ff0000000000000 || x != x:
			return x, 0
		case top&0x800 != 0:
			return math.NaN(), 0
		}
		// Subnormal: scale into the normal range.
		ix = math.Float64bits(x*0x1p52) - 52<<52
	}
	tmp := ix - logOff
	e := &logTab[tmp>>45&127]
	kd := float64(int64(tmp) >> 52)
	iz := ix - tmp&(0xfff<<52)
	z := math.Float64frombits(iz)

	// r = z·invc − 1, exactly: z's top 21 bits and the rest each multiply
	// invc (≤ 8 bits) without rounding, and the sum is representable.
	zhi := math.Float64frombits(iz &^ (1<<32 - 1))
	r := float64(zhi*e.invc) - 1 + float64((z-zhi)*e.invc)

	// k·ln2 + log c + r, with the rounding error of the last sum kept:
	// w is exact, and |w| ≥ |r| whenever w ≠ 0.
	w := float64(kd*ln2hi) + e.logc
	hi = w + r
	lo = w - hi + r + float64(kd*ln2lo) + e.logctail

	// log1p(r) − r = r²·(−1/2 + r/3 − r²/4 + r³/5 − r⁴/6 + r⁵/7 − r⁶/8).
	r2 := float64(r * r)
	p := -0.5 + float64(r*(1.0/3)) +
		float64(r2*(-0.25+float64(r*0.2))) +
		float64(float64(r2*r2)*(-1.0/6+float64(r*(1.0/7))+float64(r2*-0.125)))
	return hi, lo + float64(r2*p)
}

// Exp returns e^x. Special cases are those of math.Exp: Exp(+Inf) = +Inf,
// Exp(−Inf) = 0 and Exp(NaN) = NaN; results past the float64 range
// overflow to +Inf or underflow to 0, and subnormal results are rounded
// once.
func Exp(x float64) float64 { return exp(x, 0) }

// exp returns e^(x+xtail) for a tail |xtail| ≲ 2⁻⁴⁰·max(1, |x|).
//
// With x = (128·k + j)·ln2/128 + r and |r| ≤ ln2/256, e^x = 2^k ·
// 2^(j/128) · e^r, where the table holds 2^(j/128) as hi·(1 + tail) and a
// degree-5 Taylor polynomial gives e^r − 1 to 2⁻⁶⁰ relative.
func exp(x, xtail float64) float64 {
	abstop := math.Float64bits(x) >> 52 & 0x7ff
	special := false
	if abstop-0x3c9 >= 0x408-0x3c9 { // |x| < 2⁻⁵⁴, |x| ≥ 512, Inf or NaN
		switch {
		case abstop < 0x3c9:
			return 1 + x
		case abstop < 0x409: // 512 ≤ |x| < 1024: the scale needs care
			special = true
		case x != x || x > 0: // NaN, +Inf and overflow
			return math.Inf(1) * x
		default: // −Inf and underflow
			return 0
		}
	}
	kd := float64(x*invLn2N) + shift
	ki := math.Float64bits(kd)
	kd -= shift
	r := x - float64(kd*ln2hiN) - float64(kd*ln2loN) + xtail
	t := &expTab[ki&127]
	sbits := math.Float64bits(t.hi) + ki>>7<<52
	r2 := float64(r * r)
	tmp := t.tail + r +
		float64(r2*(0.5+float64(r*(1.0/6)))) +
		float64(float64(r2*r2)*(1.0/24+float64(r*(1.0/120))))
	if special {
		return expScaled(sbits, tmp, x > 0)
	}
	scale := math.Float64frombits(sbits)
	return scale + float64(scale*tmp)
}

// expScaled returns scale·(1 + tmp) for a scale whose exponent may lie
// outside the float64 range: it builds the scale 2¹⁰⁰⁹ lower (up) or 2¹⁰²²
// higher (down) and scales the result back. A result below 2⁻¹⁰²² is first
// rounded at the subnormal quantum, so it is rounded only once.
func expScaled(sbits uint64, tmp float64, up bool) float64 {
	if up {
		scale := math.Float64frombits(sbits - 1009<<52)
		return 0x1p1009 * (scale + float64(scale*tmp))
	}
	scale := math.Float64frombits(sbits + 1022<<52)
	y := scale + float64(scale*tmp)
	if y < 1 {
		// 1 + y rounds y to a multiple of 2⁻⁵², which 2⁻¹⁰²² maps onto
		// the subnormal quantum; lo carries both rounding errors.
		lo := scale - y + float64(scale*tmp)
		hi := 1 + y
		lo = 1 - hi + y + lo
		y = hi + lo - 1
	}
	return 0x1p-1022 * y
}

// Power is x ↦ x^e for one fixed exponent e, with e split once so that
// each call is division-free and skips math.Pow's integer/fraction
// bookkeeping.
type Power struct {
	e, eh, el float64 // e = eh + el, eh with 26 significant bits
}

// NewPower returns the power function with exponent e (finite).
func NewPower(e float64) Power {
	eh := math.Float64frombits(math.Float64bits(e) &^ (1<<27 - 1))
	return Power{e: e, eh: eh, el: e - eh}
}

// Of returns x^e for x > 0 (about 0.51 ulp at worst). For
// x = 0 and x = +Inf it returns the limit of x^e when e ≠ 0; for x < 0 or
// NaN it returns NaN.
func (p Power) Of(x float64) float64 {
	hi, lo := logDD(x)
	// e·(hi + lo) = yhi + ylo: yhi is the rounded product, and Dekker's
	// split of hi gives its rounding error exactly.
	yhi := float64(p.e * hi)
	hh := math.Float64frombits(math.Float64bits(hi) &^ (1<<27 - 1))
	hl := hi - hh
	ylo := float64(p.eh*hh) - yhi + float64(p.eh*hl) + float64(p.el*hh) +
		float64(p.el*hl) + float64(p.e*lo)
	return exp(yhi, ylo)
}
