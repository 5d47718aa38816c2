package transport

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/channel"
	"repro/internal/sim"
)

// bitEqual reports the first field where a and b (structs of the same
// type) differ, comparing floats by their bits; "" means equal.
func bitEqual(a, b any) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		var same bool
		switch fa.Kind() {
		case reflect.Float64:
			same = math.Float64bits(fa.Float()) == math.Float64bits(fb.Float())
		default:
			same = fa.Interface() == fb.Interface()
		}
		if !same {
			return fmt.Sprintf("%s: %v, want %v", va.Type().Field(i).Name, fa.Interface(), fb.Interface())
		}
	}
	return ""
}

// simState is what a run leaves behind in its simulator: the clock, the
// number of fired events and the next RNG draw.
type simState struct {
	Now   sim.Time
	Fired uint64
	Draw  int64
}

func stateOf(s *sim.Simulator) simState {
	return simState{Now: s.Now(), Fired: s.Fired(), Draw: s.Rand().Int63()}
}

// TestTransfersMatchReference runs every transfer strategy and the UDP
// stream on the pooled event path and on the original closure path, over
// seeds, BERs and two channels: E10's frozen one and a live one whose
// state flips interleave with the transfer's events. Every result field
// and the simulator's final state must agree bit for bit. (UDPStream on
// the live channel could differ only if a flip landed on a send's exact
// microsecond; these seeds hit none.)
func TestTransfersMatchReference(t *testing.T) {
	channels := map[string]func(*sim.Simulator, float64) *channel.GilbertElliott{
		"frozen": func(s *sim.Simulator, ber float64) *channel.GilbertElliott {
			ch := channel.NewGilbertElliott(s, channel.GEParams{
				MeanGood: sim.Hour, MeanBad: sim.Second, BERGood: ber, BERBad: 1e-2})
			ch.Freeze()
			return ch
		},
		"live": func(s *sim.Simulator, ber float64) *channel.GilbertElliott {
			return channel.NewGilbertElliott(s, channel.GEParams{
				MeanGood: 300 * sim.Millisecond, MeanBad: 40 * sim.Millisecond,
				BERGood: ber, BERBad: 1e-4})
		},
	}
	transfers := []struct {
		name      string
		got, want func(*sim.Simulator, PathConfig, int) TransferResult
	}{
		{"end-to-end", EndToEndTransfer, refEndToEndTransfer},
		{"split", SplitTransfer, refSplitTransfer},
		{"snoop", SnoopTransfer, refSnoopTransfer},
	}
	for chName, mkCh := range channels {
		for _, ber := range []float64{1e-8, 1e-6, 3e-6, 1e-5} {
			for seed := int64(1); seed <= 32; seed++ {
				path := func(s *sim.Simulator) PathConfig { return DefaultPathConfig(mkCh(s, ber)) }
				for _, tr := range transfers {
					s1, s2 := sim.New(seed), sim.New(seed)
					got, want := tr.got(s1, path(s1), 300_000), tr.want(s2, path(s2), 300_000)
					name := fmt.Sprintf("%s/%s/ber%g/seed%d", tr.name, chName, ber, seed)
					if d := bitEqual(got, want); d != "" {
						t.Fatalf("%s: %s", name, d)
					}
					if d := bitEqual(stateOf(s1), stateOf(s2)); d != "" {
						t.Fatalf("%s: simulator %s", name, d)
					}
				}
				s1, s2 := sim.New(seed), sim.New(seed)
				got := UDPStream(s1, path(s1), 500, 1000, 2*sim.Millisecond)
				want := refUDPStream(s2, path(s2), 500, 1000, 2*sim.Millisecond)
				name := fmt.Sprintf("udp/%s/ber%g/seed%d", chName, ber, seed)
				if d := bitEqual(got, want); d != "" {
					t.Fatalf("%s: %s", name, d)
				}
				if d := bitEqual(stateOf(s1), stateOf(s2)); d != "" {
					t.Fatalf("%s: simulator %s", name, d)
				}
			}
		}
	}
}
