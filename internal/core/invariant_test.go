package core

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/radio"
	"repro/internal/sim"
)

// TestHotspotConservationInvariants runs every interface policy over eight
// seeds with one scripted Bluetooth fade (the seed places it inside the
// admission epoch, when even the adaptive policy serves over Bluetooth, and
// sets its length) and checks conservation laws that hold for any correct
// schedule, without reading the golden:
//   - each client device's per-state dwell sums to the elapsed time;
//   - each client's energy is non-negative and never decreases;
//   - a client never receives more than its History() slots carried;
//   - no playout buffer ever holds more than its capacity.
//
// A slot or occupancy record recycled while still in flight credits bytes
// or radio time to the wrong client or state, which breaks one of these.
func TestHotspotConservationInvariants(t *testing.T) {
	var partial, recoveries, urgents int
	for _, policy := range []IfacePolicy{PolicyAdaptive, PolicyWLANOnly, PolicyBTOnly} {
		for seed := int64(1); seed <= 8; seed++ {
			cfg := DefaultConfig()
			cfg.Policy = policy
			h := NewHotspot(seed, cfg, 3)
			s := h.Sim()
			bt := h.Channel(BT)
			fadeAt := sim.FromSeconds(1 + 9*s.Rand().Float64())
			fadeFor := sim.FromSeconds(5 + 25*s.Rand().Float64())
			s.Schedule(fadeAt, func() { bt.ForceState(channel.Bad) })
			s.Schedule(fadeAt+fadeFor, func() { bt.ForceState(channel.Good) })

			clients := h.RM().Clients()
			lastEnergy := make([]float64, len(clients))
			probe := func(i int) {
				c := clients[i]
				e := c.TotalEnergy()
				if e < 0 || e < lastEnergy[i] {
					t.Fatalf("%v seed %d client %d: energy %g J after %g J at %v",
						policy, seed, c.ID(), e, lastEnergy[i], s.Now())
				}
				lastEnergy[i] = e
				if lvl, capB := c.Buffer().Level(), c.Spec().Stream.CapacityBytes; lvl > float64(capB) {
					t.Fatalf("%v seed %d client %d: buffer %g B over its %d B capacity at %v",
						policy, seed, c.ID(), lvl, capB, s.Now())
				}
			}
			for i, c := range clients {
				c.OnPower = func(sim.Time, float64) { probe(i) }
			}
			sim.NewTicker(s, 250*sim.Millisecond, func() {
				for i := range clients {
					probe(i)
				}
			})

			rep := h.Run(3 * sim.Minute)
			recoveries += rep.Recoveries
			urgents += h.RM().Urgents()

			scheduled := map[int]int{}
			for _, sl := range h.RM().History() {
				scheduled[sl.Client] += sl.Bytes
			}
			for i, c := range clients {
				probe(i)
				for _, iface := range Ifaces() {
					d := c.Device(iface)
					if d == nil {
						continue
					}
					var dwell sim.Time
					for _, st := range radio.States() {
						dwell += d.Meter().StateTime(st)
					}
					if el := d.Meter().Elapsed(); dwell != el {
						t.Errorf("%v seed %d client %d %v: dwell %v, elapsed %v",
							policy, seed, c.ID(), iface, dwell, el)
					}
				}
				if got := c.Buffer().ReceivedBytes(); got > scheduled[c.ID()] {
					t.Errorf("%v seed %d client %d: received %d B, slots carried only %d B",
						policy, seed, c.ID(), got, scheduled[c.ID()])
				}
				partial += rep.Clients[i].SlotsPartial
				if got := rep.Clients[i].BytesReceived; got != c.Buffer().ReceivedBytes() {
					t.Errorf("%v seed %d client %d: report says %d B, buffer %d B",
						policy, seed, c.ID(), got, c.Buffer().ReceivedBytes())
				}
			}
		}
	}
	// The fades must reach the degraded paths the records are recycled on.
	if partial == 0 || recoveries == 0 || urgents == 0 {
		t.Errorf("fades exercised %d partial slots, %d recoveries, %d top-ups; want all > 0",
			partial, recoveries, urgents)
	}
}

// TestHotspotMarginalMinutesAllocateOnlyHistory pins the allocation-free
// epoch and slot path: doubling a 3-client run from 4 to 8 simulated
// minutes may allocate only for the growth of the History slice.
func TestHotspotMarginalMinutesAllocateOnlyHistory(t *testing.T) {
	allocs := func(d sim.Time) float64 {
		return testing.AllocsPerRun(3, func() { NewHotspot(1, DefaultConfig(), 3).Run(d) })
	}
	four, eight := allocs(4*sim.Minute), allocs(8*sim.Minute)
	if eight-four > 8 {
		t.Errorf("%v allocs for 4 min, %v for 8 min: %v more, want at most 8 (History growth)",
			four, eight, eight-four)
	}
}

// History returns every slot scheduled so far (Figure 1's raw data).
func (rm *ResourceManager) History() []Slot { return rm.history }
