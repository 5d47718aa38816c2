// Package dcf implements the 802.11 distributed coordination function:
// CSMA/CA with binary-exponential backoff over a shared broadcast medium,
// SIFS-separated acknowledgements, retries and collision accounting.
//
// It is the substrate beneath the 802.11 power-save model (package psm) and
// the baseline "continuously active mode" (CAM) measurements that motivate
// the paper: an unmanaged WLAN station spends nearly all of its time — and
// therefore nearly all of its energy — listening to an idle medium.
//
// Backoff is slotted, but a station does not spend an event per slot: one
// countdown event covers every slot boundary up to the simulator's next
// queued instant (Simulator.Lookahead), since nothing else can observe a
// boundary in between. Outputs are those of one event per slot, bit for
// bit; ref_test.go keeps that engine as the reference.
//
// Frames are held by value: Enqueue and SendAfter copy the frame they are
// given, and the Medium copies it again into its in-flight record. The
// *frame.Frame that OnReceive and OnSent receive points into one of those
// copies and is valid only for the duration of the call.
package dcf

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/sim"
)

// Config holds 802.11b DCF timing parameters.
type Config struct {
	SlotTime     sim.Time
	SIFS         sim.Time
	DIFS         sim.Time
	CWMin        int // initial contention window (slots - 1), e.g. 31
	CWMax        int
	RetryLimit   int
	AckTimeout   sim.Time
	PLCPOverhead sim.Time // preamble + PLCP header airtime per frame
	BitRate      float64  // MAC payload rate, bits/second
}

// Default80211b returns standard 802.11b long-preamble timings.
func Default80211b() Config {
	return Config{
		SlotTime:     20 * sim.Microsecond,
		SIFS:         10 * sim.Microsecond,
		DIFS:         50 * sim.Microsecond,
		CWMin:        31,
		CWMax:        1023,
		RetryLimit:   7,
		AckTimeout:   300 * sim.Microsecond,
		PLCPOverhead: 192 * sim.Microsecond,
		BitRate:      11e6,
	}
}

// maxCW is 802.11's largest contention window (2¹⁵ − 1 slots). Bounding
// CWMax by it keeps the window doubling and backoff arithmetic far from
// overflow.
const maxCW = 32767

// Validate checks every field of the configuration: a NaN bit rate or a
// negative overhead or timeout would otherwise pass and panic mid-run with
// a negative delay.
func (c Config) Validate() error {
	if c.SlotTime <= 0 || c.SIFS <= 0 || c.DIFS <= c.SIFS {
		return fmt.Errorf("dcf: invalid IFS timing")
	}
	if c.CWMin <= 0 || c.CWMax < c.CWMin || c.CWMax > maxCW {
		return fmt.Errorf("dcf: invalid contention window %d..%d (want 0 < CWMin ≤ CWMax ≤ %d)", c.CWMin, c.CWMax, maxCW)
	}
	if math.IsNaN(c.BitRate) || math.IsInf(c.BitRate, 0) || c.BitRate <= 0 {
		return fmt.Errorf("dcf: invalid bit rate %v", c.BitRate)
	}
	if c.PLCPOverhead < 0 || c.AckTimeout < 0 || c.RetryLimit < 0 {
		return fmt.Errorf("dcf: negative PLCP overhead, ACK timeout or retry limit")
	}
	return nil
}

// AirTime returns the on-air duration of a frame of n bytes.
func (c Config) AirTime(bytes int) sim.Time {
	return c.PLCPOverhead + sim.FromSeconds(float64(bytes*8)/c.BitRate)
}

// transmission is one in-flight frame on the medium, with its own copy of
// the frame. Records are pooled by the Medium; fire is bound once, when the
// record is first allocated.
type transmission struct {
	m        *Medium
	f        frame.Frame
	from     *Station
	collided bool
	fire     func()
}

func (tx *transmission) finish() { tx.m.finish(tx) }

// Stats aggregates medium-level counters.
type Stats struct {
	Transmissions int
	Collisions    int
	Corrupted     int
	Delivered     int
}

// Medium is the shared broadcast channel all stations attach to. It detects
// collisions (any temporal overlap destroys all frames involved, no capture)
// and applies channel bit errors to otherwise-successful receptions.
type Medium struct {
	sim    *sim.Simulator
	cfg    Config
	ch     *channel.GilbertElliott // may be nil for an error-free medium
	nodes  map[int]*Station
	order  []*Station // attach order: deterministic notification sequence
	active []*transmission
	free   []*transmission // recycled records, reused by begin
	stats  Stats
}

// NewMedium creates an empty medium. ch may be nil for a perfect channel.
func NewMedium(s *sim.Simulator, cfg Config, ch *channel.GilbertElliott) *Medium {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Medium{sim: s, cfg: cfg, ch: ch, nodes: make(map[int]*Station)}
}

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// Busy reports whether any transmission is in flight.
func (m *Medium) Busy() bool { return len(m.active) > 0 }

func (m *Medium) attach(st *Station) {
	if _, dup := m.nodes[st.id]; dup {
		panic(fmt.Sprintf("dcf: duplicate station id %d", st.id))
	}
	m.nodes[st.id] = st
	m.order = append(m.order, st)
}

// begin puts a copy of f on the air. Any overlap collides every frame
// involved.
func (m *Medium) begin(st *Station, f *frame.Frame) {
	dur := m.cfg.AirTime(f.Size())
	var tx *transmission
	if n := len(m.free); n > 0 {
		tx = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		tx = &transmission{m: m}
		tx.fire = tx.finish
	}
	tx.f, tx.from, tx.collided = *f, st, false
	if len(m.active) > 0 {
		tx.collided = true
		for _, other := range m.active {
			if !other.collided {
				other.collided = true
				m.stats.Collisions++
			}
		}
		m.stats.Collisions++
	}
	wasIdle := len(m.active) == 0
	m.active = append(m.active, tx)
	m.stats.Transmissions++
	if wasIdle {
		// Attach order, not map order: busy/idle notifications reach
		// stations in a fixed sequence, so shared-RNG draws (e.g. backoff
		// sampling in startContention) consume the stream deterministically.
		for _, n := range m.order {
			if n != st {
				n.mediumBusy()
			}
		}
	}
	m.sim.Schedule(dur, tx.fire)
}

func (m *Medium) finish(tx *transmission) {
	// Remove from active set.
	for i, a := range m.active {
		if a == tx {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	nowIdle := len(m.active) == 0

	delivered := false
	if !tx.collided {
		corrupted := false
		if m.ch != nil && m.ch.SamplePacketError(tx.f.Size()) {
			corrupted = true
			m.stats.Corrupted++
		}
		if !corrupted {
			m.deliver(tx)
			delivered = true
		}
	}
	if delivered {
		m.stats.Delivered++
	}
	tx.from.txDone(&tx.f, delivered)
	// Recycle only after txDone has returned: until then the record's
	// frame and sender are still in use.
	tx.from = nil
	m.free = append(m.free, tx)

	if nowIdle {
		for _, n := range m.order {
			n.mediumIdle()
		}
	}
}

func (m *Medium) deliver(tx *transmission) {
	if tx.f.To == frame.Broadcast {
		for _, n := range m.order {
			if n != tx.from && n.Awake() {
				n.receive(&tx.f)
			}
		}
		return
	}
	if dst, ok := m.nodes[tx.f.To]; ok && dst.Awake() {
		dst.receive(&tx.f)
	}
}
