// Package link implements the logical-link-layer energy trade-offs the
// paper surveys: selective-repeat ARQ retransmission, block forward error
// correction, hybrid combinations, and channel-prediction-driven adaptive
// ARQ. Its experiments answer the
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
