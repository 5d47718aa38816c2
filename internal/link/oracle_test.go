package link

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
	Draw  float64
}

func stateOf(s *sim.Simulator) simState {
	return simState{Now: s.Now(), Fired: s.Fired(), Draw: s.Rand().Float64()}
}

// oracleChannel is a live (unfrozen) Gilbert–Elliott channel, so its flip
// events interleave with the transfer's and draw from the same RNG.
func oracleChannel(s *sim.Simulator, ber float64) *channel.GilbertElliott {
	return channel.NewGilbertElliott(s, channel.GEParams{
		MeanGood: 80 * sim.Millisecond, MeanBad: 20 * sim.Millisecond,
		BERGood: ber, BERBad: math.Min(0.5, 20*ber),
	})
}

// TestTransferMatchesReference runs the pooled engine and the original
// closure engine on identical simulators over a grid of seeds, BERs,
// disciplines and codes: every Result field and the simulator's final
// state must agree bit for bit.
func TestTransferMatchesReference(t *testing.T) {
	bers := []float64{1e-7, 1e-6, 1e-5, 1e-4, 5e-4}
	codes := []Code{NoCode(1400), NewBCHLike(1400, 12)}
	props := []sim.Time{5 * sim.Microsecond, 2 * sim.Millisecond, 20 * sim.Millisecond}
	for _, arq := range []ARQKind{NoARQ, SelectiveRepeat} {
		for ci, code := range codes {
			for _, ber := range bers {
				for seed := int64(1); seed <= 32; seed++ {
					p := DefaultParams()
					p.ARQ, p.Code = arq, code
					p.PropDelay = props[seed%3]
					p.RetryLimit = int(seed % 5)
					if seed%4 == 0 {
						p.Deadline = 150 * sim.Millisecond
					}
					run := func(transfer func(*sim.Simulator, *channel.GilbertElliott, Params, int) Result) (Result, simState) {
						s := sim.New(seed)
						ch := oracleChannel(s, ber)
						r := transfer(s, ch, p, 60)
						return r, stateOf(s)
					}
					got, gs := run(Transfer)
					want, ws := run(refTransfer)
					name := fmt.Sprintf("%v/code%d/ber%g/seed%d", arq, ci, ber, seed)
					if d := bitEqual(got, want); d != "" {
						t.Fatalf("%s: %s", name, d)
					}
					if d := bitEqual(gs, ws); d != "" {
						t.Fatalf("%s: simulator %s", name, d)
					}
				}
			}
		}
	}
}

// TestRunAdaptiveMatchesReference covers the multi-epoch path: every epoch
// is a transfer on the same simulator, so an epoch's leftover airtime
// events fire during the next one and must still draw from the channel.
func TestRunAdaptiveMatchesReference(t *testing.T) {
	preds := []func() channel.Predictor{
		func() channel.Predictor { return channel.NewLastState() },
		func() channel.Predictor { return channel.NewMarkov() },
		func() channel.Predictor { return channel.NewWindow(5) },
		func() channel.Predictor { return channel.NewOracle() },
	}
	for _, arq := range []ARQKind{NoARQ, SelectiveRepeat} {
		for pi, mk := range preds {
			for seed := int64(1); seed <= 8; seed++ {
				run := func(adaptive func(*sim.Simulator, *channel.GilbertElliott, channel.Predictor, AdaptiveConfig) AdaptiveResult) (AdaptiveResult, simState) {
					s := sim.New(seed)
					ch := channel.NewGilbertElliott(s, channel.GEParams{
						MeanGood: 2 * sim.Second, MeanBad: 700 * sim.Millisecond,
						BERGood: 1e-6, BERBad: 5e-4,
					})
					cfg := DefaultAdaptiveConfig(400)
					cfg.Epoch = 100 * sim.Millisecond
					cfg.GoodParams.ARQ, cfg.BadParams.ARQ = arq, arq
					cfg.GoodParams.PropDelay = 2 * sim.Millisecond
					r := adaptive(s, ch, mk(), cfg)
					return r, stateOf(s)
				}
				got, gs := run(RunAdaptive)
				want, ws := run(refRunAdaptive)
				name := fmt.Sprintf("%v/pred%d/seed%d", arq, pi, seed)
				if d := bitEqual(got, want); d != "" {
					t.Fatalf("%s: %s", name, d)
				}
				if d := bitEqual(gs, ws); d != "" {
					t.Fatalf("%s: simulator %s", name, d)
				}
			}
		}
	}
}
