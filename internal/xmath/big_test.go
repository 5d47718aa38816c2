package xmath

import (
	"math"
	"math/big"
	"sync"
)

// Arbitrary-precision references: log by the atanh series, exp by Taylor
// series after halving, both built from big.Float arithmetic alone, so the
// tables and accuracy checks owe nothing to the math package's kernels.

// bigConst returns x as a big.Float at precision prec.
func bigConst(x float64, prec uint) *big.Float {
	return new(big.Float).SetPrec(prec).SetFloat64(x)
}

// atanhSeries returns Σ t^(2k+1)/(2k+1) for |t| ≤ 1/3, to prec bits.
func atanhSeries(t *big.Float, prec uint) *big.Float {
	t2 := new(big.Float).SetPrec(prec).Mul(t, t)
	sum := new(big.Float).SetPrec(prec).Set(t)
	pow := new(big.Float).SetPrec(prec).Set(t)
	term := new(big.Float).SetPrec(prec)
	for k := int64(3); ; k += 2 {
		pow.Mul(pow, t2)
		term.Quo(pow, new(big.Float).SetPrec(prec).SetInt64(k))
		if term.Sign() == 0 || term.MantExp(nil) < sum.MantExp(nil)-int(prec)-4 {
			return sum
		}
		sum.Add(sum, term)
	}
}

// ln2Bits is the precision bigLn2 computes ln 2 at once; callers get it
// rounded to theirs.
const ln2Bits = 512

var ln2Once = sync.OnceValue(func() *big.Float {
	third := new(big.Float).SetPrec(ln2Bits).Quo(bigConst(1, ln2Bits), bigConst(3, ln2Bits))
	s := atanhSeries(third, ln2Bits)
	return s.Add(s, s)
})

// bigLn2 returns ln 2 = 2·atanh(1/3) rounded to prec ≤ 512 bits.
func bigLn2(prec uint) *big.Float {
	return new(big.Float).SetPrec(prec).Set(ln2Once())
}

// bigLog returns the natural logarithm of x > 0 to about prec bits.
func bigLog(x *big.Float, prec uint) *big.Float {
	wp := prec + 16
	m := new(big.Float).SetPrec(wp)
	e := x.MantExp(m) // x = m·2^e, m ∈ [0.5, 1)
	if m.Cmp(bigConst(math.Sqrt2/2, wp)) < 0 {
		m.SetMantExp(m, 1)
		e--
	}
	// log m = 2·atanh((m−1)/(m+1)), |t| < 0.18.
	num := new(big.Float).SetPrec(wp).Sub(m, bigConst(1, wp))
	den := new(big.Float).SetPrec(wp).Add(m, bigConst(1, wp))
	s := atanhSeries(num.Quo(num, den), wp)
	s.Add(s, s)
	k := new(big.Float).SetPrec(wp).SetInt64(int64(e))
	return s.Add(s, k.Mul(k, bigLn2(wp))).SetPrec(prec)
}

// bigExp returns e^y to about prec bits, for |y| below a few thousand.
func bigExp(y *big.Float, prec uint) *big.Float {
	wp := prec + 32
	ln2 := bigLn2(wp)
	// y = k·ln2 + r with |r| ≤ ln2/2, then e^r = (e^(r/2^h))^(2^h).
	q := new(big.Float).SetPrec(wp).Quo(y, ln2)
	kf, _ := q.Float64()
	k := int64(math.Round(kf))
	r := new(big.Float).SetPrec(wp).Mul(new(big.Float).SetPrec(wp).SetInt64(k), ln2)
	r.Sub(y, r)
	const halvings = 12
	r.SetMantExp(r, -halvings)
	sum := bigConst(1, wp)
	term := bigConst(1, wp)
	for n := int64(1); ; n++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetPrec(wp).SetInt64(n))
		if term.Sign() == 0 || term.MantExp(nil) < -int(wp)-4 {
			break
		}
		sum.Add(sum, term)
	}
	for i := 0; i < halvings; i++ {
		sum.Mul(sum, sum)
	}
	return sum.SetMantExp(sum, int(k)).SetPrec(prec)
}
