package core

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/sim"
)

// TestRandomOutageSoak throws randomized link outages at the scheduler for
// half an hour of simulated time and checks system-level invariants: the
// run completes (no state-machine panics), stalls stay bounded, buffers
// conserve bytes and the schedule remains well-formed.
func TestRandomOutageSoak(t *testing.T) {
	for _, seed := range []int64{101, 202, 303} {
		seed := seed
		h := NewHotspot(seed, DefaultConfig(), 3)
		s := h.Sim()
		rng := s.Rand()

		// Random outage process on both links: every ~20 s one link fades
		// for 2-10 s. Both can be down simultaneously — QoS damage is then
		// legitimate, so the assertion is on bounded damage, not zero.
		var scheduleOutage func()
		scheduleOutage = func() {
			delay := sim.FromSeconds(8 + rng.Float64()*25)
			s.Schedule(delay, func() {
				iface := Iface(rng.Intn(int(numIfaces)))
				dur := sim.FromSeconds(2 + rng.Float64()*8)
				h.Channel(iface).ForceState(channel.Bad)
				s.Schedule(dur, func() { h.Channel(iface).ForceState(channel.Good) })
				scheduleOutage()
			})
		}
		scheduleOutage()

		rep := h.Run(30 * sim.Minute)

		// Bounded damage: across 30 min of repeated outages, stalls must
		// stay under 2% of playback time per client on average.
		maxStall := 0.02 * rep.Duration.Seconds() * float64(len(rep.Clients))
		if rep.TotalStall.Seconds() > maxStall {
			t.Errorf("seed %d: total stall %.1fs exceeds %.1fs budget",
				seed, rep.TotalStall.Seconds(), maxStall)
		}

		for _, c := range h.RM().Clients() {
			b := c.Buffer()
			// Conservation: received = consumed + level + overflow, up to
			// float accumulation error (~1e-7 relative over ~30 MB).
			got := b.ConsumedBytes() + b.Level() + float64(b.OverflowBytes())
			tol := 1e-6 * float64(b.ReceivedBytes())
			if tol < 1 {
				tol = 1
			}
			if diff := got - float64(b.ReceivedBytes()); diff > tol || diff < -tol {
				t.Errorf("seed %d client %d: buffer conservation off by %.1f", seed, c.ID(), diff)
			}
			if c.TotalEnergy() <= 0 {
				t.Errorf("seed %d client %d: no energy metered", seed, c.ID())
			}
			// Power must stay inside physical bounds.
			if p := c.AveragePower(); p < 0 || p > 2.2 {
				t.Errorf("seed %d client %d: avg power %.3f W out of bounds", seed, c.ID(), p)
			}
		}

		// Schedule well-formedness: every slot has positive span and
		// payload; bulk/rescue slots never overlap per interface.
		lastEnd := map[Iface]sim.Time{}
		for _, sl := range rep.Slots {
			if sl.End < sl.Start || sl.Bytes < 0 {
				t.Fatalf("seed %d: malformed slot %v", seed, sl)
			}
			if sl.Kind == SlotBulk || sl.Kind == SlotRescue {
				if sl.Start < lastEnd[sl.Iface] {
					t.Errorf("seed %d: %v overlaps previous on %v", seed, sl, sl.Iface)
				}
				lastEnd[sl.Iface] = sl.End
			}
		}
		if len(rep.Slots) < 3*25 {
			t.Errorf("seed %d: only %d slots in 30 min", seed, len(rep.Slots))
		}
	}
}
