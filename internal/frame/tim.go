package frame

import "fmt"

// TIM is the 802.11 traffic indication map: a partial virtual bitmap telling
// power-saving stations whether the AP buffers traffic for them. The paper's
// description of the PSM standard — "a device enter[s] doze mode whenever
// there is no traffic for it in the traffic indication map sent by the
// access point" — is implemented on top of this type.
type TIM struct {
	// DTIMCount counts down beacons until the next DTIM (0 = this beacon is
	// a DTIM and broadcast traffic follows).
	DTIMCount int
	// DTIMPeriod is the DTIM interval in beacons.
	DTIMPeriod int
	// Broadcast indicates buffered broadcast/multicast traffic (delivered
	// after DTIM beacons).
	Broadcast bool
	bitmap    map[int]bool
}

// NewTIM creates an empty TIM with the given DTIM period.
func NewTIM(dtimPeriod int) *TIM {
	if dtimPeriod <= 0 {
		panic(fmt.Sprintf("frame: DTIM period %d must be positive", dtimPeriod))
	}
	return &TIM{DTIMPeriod: dtimPeriod, bitmap: make(map[int]bool)}
}

// Set marks station sta as having buffered traffic.
func (t *TIM) Set(sta int) {
	if sta < 0 {
		panic("frame: TIM station ids must be non-negative")
	}
	t.bitmap[sta] = true
}

// Clear unmarks station sta.
func (t *TIM) Clear(sta int) { delete(t.bitmap, sta) }

// Indicated reports whether sta has buffered traffic per this TIM.
func (t *TIM) Indicated(sta int) bool { return t.bitmap[sta] }

// Stations returns the number of stations indicated.
func (t *TIM) Stations() int { return len(t.bitmap) }

// Any reports whether any station is indicated.
func (t *TIM) Any() bool { return len(t.bitmap) > 0 }

// maxSta returns the highest indicated station id, or -1.
func (t *TIM) maxSta() int {
	max := -1
	for sta := range t.bitmap {
		if sta > max {
			max = sta
		}
	}
	return max
}

// minSta returns the lowest indicated station id, or -1.
func (t *TIM) minSta() int {
	min := -1
	for sta := range t.bitmap {
		if min == -1 || sta < min {
			min = sta
		}
	}
	return min
}

// EncodedSize returns the on-air size of the TIM element in bytes using the
// 802.11 partial-virtual-bitmap encoding: 4 fixed bytes plus only the octet
// range [floor(min/8), floor(max/8)] of the bitmap.
func (t *TIM) EncodedSize() int {
	if len(t.bitmap) == 0 {
		return 4 + 1 // standard: at least one bitmap octet present
	}
	lo := t.minSta() / 8
	hi := t.maxSta() / 8
	return 4 + (hi - lo + 1)
}
