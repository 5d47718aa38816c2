// Package link implements the logical-link-layer energy trade-offs the
// paper surveys: ARQ retransmission schemes (stop-and-wait, go-back-N,
// selective repeat), block forward error correction, hybrid combinations,
// and channel-prediction-driven adaptive ARQ. Its experiments answer the
// question the paper poses — when is it cheaper to retransmit, and when to
// pay constant FEC overhead for longer packets?
package link

import (
	"fmt"
	"math"
)

// Code is a block FEC code model: K payload bytes are expanded to N coded
// bytes and any pattern of at most T bit errors per block is correctable.
// Parity cost follows the BCH rule of thumb: correcting t bit errors in an
// n-bit block needs ≈ ceil(log2(n))·t parity bits.
type Code struct {
	K int // data bytes per block
	N int // coded bytes per block
	T int // correctable bit errors per block
}

// NoCode returns the identity (no-FEC) code for the given block size.
func NoCode(k int) Code { return Code{K: k, N: k, T: 0} }

// NewBCHLike builds a code correcting t bit errors on k-byte blocks with
// BCH-style parity overhead.
func NewBCHLike(k, t int) Code {
	if k <= 0 || t < 0 {
		panic(fmt.Sprintf("link: invalid code parameters k=%d t=%d", k, t))
	}
	if t == 0 {
		return NoCode(k)
	}
	nBits := float64(k * 8)
	m := int(math.Ceil(math.Log2(nBits))) + 1
	parityBits := m * t
	return Code{K: k, N: k + (parityBits+7)/8, T: t}
}

// Overhead returns the expansion ratio N/K (≥ 1).
func (c Code) Overhead() float64 { return float64(c.N) / float64(c.K) }

// Corrects reports whether a block with the given number of bit errors
// decodes successfully.
func (c Code) Corrects(bitErrors int) bool { return bitErrors <= c.T }

// Validate checks the code's internal consistency.
func (c Code) Validate() error {
	if c.K <= 0 || c.N < c.K || c.T < 0 {
		return fmt.Errorf("link: inconsistent code %+v", c)
	}
	return nil
}

// BlockErrorProb returns the probability that a block fails to decode under
// independent bit errors at the given BER: P(#errors > T) over N·8 bits.
func (c Code) BlockErrorProb(ber float64) float64 {
	if ber <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	n := c.N * 8
	// Sum the binomial tail: 1 - Σ_{i=0..T} C(n,i) p^i (1-p)^(n-i),
	// computed in log space to survive large n.
	logP := math.Log(ber)
	logQ := math.Log1p(-ber)
	cum := 0.0
	logC := 0.0 // log C(n, 0)
	for i := 0; i <= c.T; i++ {
		if i > 0 {
			logC += math.Log(float64(n-i+1)) - math.Log(float64(i))
		}
		// Rounding each product forbids fusing it into the sum (FMA).
		cum += math.Exp(logC + float64(float64(i)*logP) + float64(float64(n-i)*logQ))
	}
	if cum > 1 {
		cum = 1
	}
	return 1 - cum
}
