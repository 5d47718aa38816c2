// Package frame defines the MAC-level frame formats shared by the 802.11
// DCF/PSM, EC-MAC and PAMAS models: data frames, acknowledgements, beacons
// carrying traffic indication maps (TIM), and PS-Poll frames. Sizes follow
// 802.11b conventions so airtime computations are realistic.
//
// Frames travel by value: a MAC queue, a pending response or an in-flight
// transmission holds its own copy, so the steady state allocates no
// frames. A *Frame handed to a callback points into such a copy and is
// valid only for the duration of the call; a callback that keeps a frame
// must copy it. A beacon's TIM is shared by reference with every copy of
// the beacon, and its owner may reuse it once the beacon has been sent.
package frame

import "fmt"

// Kind discriminates frame types.
type Kind int

// Frame kinds.
const (
	Data Kind = iota
	Ack
	Beacon
	PSPoll
)

// String names the frame kind.
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Beacon:
		return "beacon"
	case PSPoll:
		return "ps-poll"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Wire-size constants (bytes), per 802.11b framing.
const (
	MACHeader  = 34 // 30-byte header + 4-byte FCS
	AckSize    = 14
	PSPollSize = 20
	BeaconBase = 50 // beacon body before the TIM element
	MaxPayload = 2304
)

// Frame is one MAC-layer protocol data unit.
type Frame struct {
	Kind    Kind
	From    int // station id; -1 = access point
	To      int // station id; -1 = access point, -2 = broadcast
	Seq     int
	Payload int  // application payload bytes carried
	More    bool // 802.11 "more data" bit: AP holds further buffered frames
	// TIM is attached to Beacon frames.
	TIM *TIM
}

// AP and Broadcast are sentinel addresses.
const (
	AP        = -1
	Broadcast = -2
)

// Size returns the frame's on-air size in bytes (header + body + any TIM).
func (f *Frame) Size() int {
	switch f.Kind {
	case Ack:
		return AckSize
	case PSPoll:
		return PSPollSize
	case Beacon:
		n := BeaconBase
		if f.TIM != nil {
			n += f.TIM.EncodedSize()
		}
		return n
	default:
		return MACHeader + f.Payload
	}
}

// NewData builds a data frame. It inlines, so a frame handed straight to
// a queue that copies it (dcf.Station.Enqueue) stays on the stack.
func NewData(from, to, seq, payload int) *Frame {
	if uint(payload) > MaxPayload { // negative payloads wrap above it
		badPayload(payload)
	}
	return &Frame{Kind: Data, From: from, To: to, Seq: seq, Payload: payload}
}

// badPayload panics out of line, keeping NewData within the inlining
// budget.
//
//go:noinline
func badPayload(payload int) {
	panic(fmt.Sprintf("frame: payload %d outside [0, %d]", payload, MaxPayload))
}

// NewAck builds an acknowledgement for the given destination.
func NewAck(from, to int) Frame { return Frame{Kind: Ack, From: from, To: to} }

// NewPSPoll builds a PS-Poll frame from a dozing station to the AP. The
// sequence number lets the AP suppress duplicated polls caused by MAC-level
// retransmission of the poll itself.
func NewPSPoll(from, seq int) Frame {
	return Frame{Kind: PSPoll, From: from, To: AP, Seq: seq}
}

// NewBeacon builds a beacon carrying the given TIM.
func NewBeacon(tim *TIM) Frame {
	return Frame{Kind: Beacon, From: AP, To: Broadcast, TIM: tim}
}
