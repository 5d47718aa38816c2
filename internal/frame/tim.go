package frame

import "math/bits"

// TIM is the 802.11 traffic indication map: a partial virtual bitmap telling
// power-saving stations whether the AP buffers traffic for them. The paper's
// description of the PSM standard — "a device enter[s] doze mode whenever
// there is no traffic for it in the traffic indication map sent by the
// access point" — is implemented on top of this type.
//
// The bitmap is a bitset indexed by station id, so its storage grows with
// the highest id set: ids are meant to be association ids, which 802.11
// caps at 2007. Reset empties the bitset but keeps its words, so an AP
// reusing its TIMs stops allocating once they cover its highest id.
type TIM struct {
	words []uint64 // bit sta%64 of words[sta/64] marks station sta
}

// NewTIM creates an empty TIM.
func NewTIM() *TIM { return &TIM{} }

// Reset unmarks every station, keeping the bitmap's storage for reuse.
func (t *TIM) Reset() { clear(t.words) }

// Set marks station sta as having buffered traffic.
func (t *TIM) Set(sta int) {
	if sta < 0 {
		panic("frame: TIM station ids must be non-negative")
	}
	w := sta / 64
	if w >= len(t.words) {
		t.words = append(t.words, make([]uint64, w+1-len(t.words))...)
	}
	t.words[w] |= uint64(1) << (sta % 64)
}

// Indicated reports whether sta has buffered traffic per this TIM.
func (t *TIM) Indicated(sta int) bool {
	if sta < 0 || sta/64 >= len(t.words) {
		return false
	}
	return t.words[sta/64]&(uint64(1)<<(sta%64)) != 0
}

// maxSta returns the highest indicated station id, or -1.
func (t *TIM) maxSta() int {
	for w := len(t.words) - 1; w >= 0; w-- {
		if t.words[w] != 0 {
			return w*64 + 63 - bits.LeadingZeros64(t.words[w])
		}
	}
	return -1
}

// minSta returns the lowest indicated station id, or -1.
func (t *TIM) minSta() int {
	for w, x := range t.words {
		if x != 0 {
			return w*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// EncodedSize returns the on-air size of the TIM element in bytes using the
// 802.11 partial-virtual-bitmap encoding: 4 fixed bytes plus only the octet
// range [floor(min/8), floor(max/8)] of the bitmap.
func (t *TIM) EncodedSize() int {
	lo := t.minSta()
	if lo < 0 {
		return 4 + 1 // standard: at least one bitmap octet present
	}
	return 4 + (t.maxSta()/8 - lo/8 + 1)
}
