package exp

import (
	"testing"

	"repro/internal/sim"
)

// The DCF, PSM and EC-MAC models allocate nothing in steady state: frames
// travel by value, TIMs and event records are reused, and every callback
// is bound once. So a MAC leg of e3 or e5 run for twice the simulated
// time costs no more allocations than the same leg run once: all it
// allocates is its set-up and the warm-up of its pools.
func TestMACLegsMarginalTimeAllocatesNothing(t *testing.T) {
	const seed, n, bytes, every = 1, 4, 2000, 125 * sim.Millisecond
	for _, leg := range []struct {
		name string
		run  func(dur sim.Time)
	}{
		{"e3 uplink station", func(d sim.Time) { runUplinkStation(seed, d) }},
		{"e5 CAM", func(d sim.Time) { runDCFDownlink(seed, n, bytes, every, d, false) }},
		{"e5 PSM", func(d sim.Time) { runDCFDownlink(seed, n, bytes, every, d, true) }},
		{"e5 EC-MAC", func(d sim.Time) { runECMACDownlink(seed, n, bytes, every, d) }},
	} {
		const dur = 10 * sim.Second
		once := testing.AllocsPerRun(2, func() { leg.run(dur) })
		twice := testing.AllocsPerRun(2, func() { leg.run(2 * dur) })
		t.Logf("%s: %.0f allocations over %v, %.0f over %v", leg.name, once, dur, twice, 2*dur)
		if twice > once {
			t.Errorf("%s: %v simulated allocate %.0f times, %v allocate %.0f: the marginal %v allocates %.0f times, want 0",
				leg.name, dur, once, 2*dur, twice, dur, twice-once)
		}
	}
}
