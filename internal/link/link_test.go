package link

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/channel"
	"repro/internal/sim"
)

// uniformChannel builds a frozen channel with a fixed BER.
func uniformChannel(s *sim.Simulator, ber float64) *channel.GilbertElliott {
	badBer := ber * 10
	if badBer > 0.5 {
		badBer = 0.5
	}
	if badBer <= ber {
		badBer = ber + 1e-9
	}
	ch := channel.NewGilbertElliott(s, channel.GEParams{
		MeanGood: sim.Hour, MeanBad: sim.Second,
		BERGood: ber, BERBad: badBer,
	})
	ch.Freeze()
	return ch
}

func TestCodeConstruction(t *testing.T) {
	c := NoCode(1400)
	if c.K != 1400 || c.N != 1400 || c.T != 0 {
		t.Errorf("NoCode wrong: %+v", c)
	}
	b := NewBCHLike(256, 8)
	if b.N <= b.K {
		t.Error("BCH-like code has no parity")
	}
	if !b.Corrects(8) || b.Corrects(9) {
		t.Error("correction threshold wrong")
	}
	if err := b.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewBCHLikePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid code accepted")
		}
	}()
	NewBCHLike(0, 3)
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Code = NoCode(100) // mismatched block
	if err := p.Validate(); err == nil {
		t.Error("block/payload mismatch accepted")
	}
	p2 := DefaultParams()
	p2.ARQ = SelectiveRepeat
	p2.Window = 0
	if err := p2.Validate(); err == nil {
		t.Error("zero window accepted")
	}
}

func TestARQKindString(t *testing.T) {
	for _, k := range []ARQKind{NoARQ, SelectiveRepeat} {
		if k.String() == "" {
			t.Error("missing name")
		}
	}
}

func transferOn(t *testing.T, seed int64, ber float64, mutate func(*Params), n int) Result {
	t.Helper()
	s := sim.New(seed)
	ch := uniformChannel(s, ber)
	p := DefaultParams()
	if mutate != nil {
		mutate(&p)
	}
	return Transfer(s, ch, p, n)
}

func TestCleanChannelAllSchemesDeliverAll(t *testing.T) {
	for _, arq := range []ARQKind{NoARQ, SelectiveRepeat} {
		r := transferOn(t, 1, 1e-9, func(p *Params) { p.ARQ = arq }, 100)
		if r.DeliveredPackets != 100 || r.LostPackets != 0 {
			t.Errorf("%v: delivered %d lost %d, want 100/0", arq, r.DeliveredPackets, r.LostPackets)
		}
		if r.Transmissions != 100 {
			t.Errorf("%v: %d transmissions on a clean channel, want 100", arq, r.Transmissions)
		}
	}
}

func TestLossyChannelARQRecovers(t *testing.T) {
	// PER ≈ 11% at ber=1e-5 with 1416-byte frames.
	for _, arq := range []ARQKind{SelectiveRepeat} {
		r := transferOn(t, 2, 1e-5, func(p *Params) { p.ARQ = arq }, 300)
		if r.DeliveredPackets != 300 {
			t.Errorf("%v: delivered %d, want 300", arq, r.DeliveredPackets)
		}
		if r.Transmissions <= 300 {
			t.Errorf("%v: no retransmissions on lossy channel", arq)
		}
	}
}

func TestNoARQHasResidualLoss(t *testing.T) {
	r := transferOn(t, 3, 1e-5, func(p *Params) { p.ARQ = NoARQ }, 500)
	if r.LostPackets == 0 {
		t.Error("NoARQ lost nothing on a lossy channel")
	}
	if r.DeliveredPackets+r.LostPackets != 500 {
		t.Error("packets unaccounted")
	}
	if r.Transmissions != 500 {
		t.Errorf("NoARQ transmissions = %d, want exactly 500", r.Transmissions)
	}
}

func TestFECMasksErrorsWithoutRetransmission(t *testing.T) {
	// At ber=1e-5, a t=16 code on 1400-byte blocks virtually eliminates
	// block errors (mean errors ≈ 0.11 per block).
	r := transferOn(t, 4, 1e-5, func(p *Params) {
		p.ARQ = NoARQ
		p.Code = NewBCHLike(1400, 16)
	}, 500)
	if r.LostPackets != 0 {
		t.Errorf("FEC-protected transfer lost %d packets", r.LostPackets)
	}
}

func TestSelectiveRepeatFillsPipeWithDelay(t *testing.T) {
	// With 2 ms propagation legs one packet's round trip is ~9.7 ms, but a
	// window of 8 keeps the pipe full, approaching link saturation.
	sr := transferOn(t, 6, 1e-9, func(p *Params) { p.PropDelay = 2 * sim.Millisecond; p.Window = 8 }, 200)
	goodput := float64(sr.DeliveredPackets*DefaultParams().PacketBytes*8) / sr.Duration.Seconds()
	if goodput < 1.8e6 {
		t.Errorf("SR goodput %.0f should approach the 2 Mb/s link rate", goodput)
	}
}

func TestEnergyCrossoverARQvsFEC(t *testing.T) {
	// The paper's trade-off: at low BER plain ARQ is cheapest (no parity
	// overhead); at high BER FEC-protected transfer wins (retransmissions
	// explode).
	arqAt := func(ber float64) float64 {
		return transferOn(t, 7, ber, func(p *Params) { p.ARQ = SelectiveRepeat }, 200).EnergyPerBitJ
	}
	hybridAt := func(ber float64) float64 {
		return transferOn(t, 7, ber, func(p *Params) {
			p.ARQ = SelectiveRepeat
			p.Code = NewBCHLike(1400, 16)
		}, 200).EnergyPerBitJ
	}
	lowBer, highBer := 1e-7, 8e-5
	if !(arqAt(lowBer) < hybridAt(lowBer)) {
		t.Errorf("at BER %g plain ARQ (%.3e) should beat hybrid (%.3e)",
			lowBer, arqAt(lowBer), hybridAt(lowBer))
	}
	if !(hybridAt(highBer) < arqAt(highBer)) {
		t.Errorf("at BER %g hybrid (%.3e) should beat plain ARQ (%.3e)",
			highBer, hybridAt(highBer), arqAt(highBer))
	}
}

// Property: selective repeat retires every packet exactly once, delivered
// or lost, across a range of loss rates and seeds. A packet may be lost:
// near BER 6e-5 a 1416-byte frame fails about half its tries on the frozen
// good-state channel, so its 16 retries can run out. The pinned case is one
// such transfer, found by the random inputs; it also catches a retire that
// goes uncounted.
func TestSelectiveRepeatExactlyOnceProperty(t *testing.T) {
	transfer := func(seed int64, berRaw uint16) Result {
		ber := float64(berRaw%60) * 1e-6 // 0 .. 6e-5
		s := sim.New(seed)
		ch := uniformChannel(s, ber+1e-9)
		p := DefaultParams()
		p.ARQ = SelectiveRepeat
		return Transfer(s, ch, p, 60)
	}
	if r := transfer(-2708032457246867447, 0xd9f4); r.DeliveredPackets != 59 || r.LostPackets != 1 {
		t.Errorf("pinned transfer: %d delivered, %d lost; want 59 and 1", r.DeliveredPackets, r.LostPackets)
	}
	prop := func(seed int64, berRaw uint16) bool {
		r := transfer(seed, berRaw)
		return r.DeliveredPackets+r.LostPackets == 60
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAdaptiveBeatsStaticOnBurstyChannel(t *testing.T) {
	run := func(pred channel.Predictor, static *Params) AdaptiveResult {
		s := sim.New(11)
		ch := channel.NewGilbertElliott(s, channel.GEParams{
			MeanGood: 2 * sim.Second, MeanBad: 700 * sim.Millisecond,
			BERGood: 1e-6, BERBad: 2e-4,
		})
		cfg := DefaultAdaptiveConfig(800)
		if static != nil {
			cfg.GoodParams = *static
			cfg.BadParams = *static
		}
		return RunAdaptive(s, ch, pred, cfg)
	}
	adaptive := run(channel.NewLastState(), nil)
	big := DefaultParams() // always large packets, no FEC
	staticBig := run(channel.NewLastState(), &big)
	if adaptive.EnergyPerBitJ >= staticBig.EnergyPerBitJ {
		t.Errorf("adaptive energy/bit %.3e should beat static-large %.3e on bursty channel",
			adaptive.EnergyPerBitJ, staticBig.EnergyPerBitJ)
	}
	if adaptive.Accuracy < 0.6 {
		t.Errorf("last-state accuracy %.2f unexpectedly low", adaptive.Accuracy)
	}
}

func TestOracleIsUpperBound(t *testing.T) {
	run := func(pred channel.Predictor) AdaptiveResult {
		s := sim.New(13)
		ch := channel.NewGilbertElliott(s, channel.GEParams{
			MeanGood: 2 * sim.Second, MeanBad: 700 * sim.Millisecond,
			BERGood: 1e-6, BERBad: 2e-4,
		})
		return RunAdaptive(s, ch, pred, DefaultAdaptiveConfig(600))
	}
	oracle := run(channel.NewOracle())
	if oracle.Accuracy != 1.0 {
		t.Errorf("oracle accuracy = %.3f, want 1.0", oracle.Accuracy)
	}
	if oracle.PredictionCost != 0 {
		t.Error("oracle should have zero prediction cost")
	}
	last := run(channel.NewLastState())
	// The oracle can only do as well or better on energy per bit (allow a
	// small tolerance for stochastic variation between runs).
	if oracle.EnergyPerBitJ > last.EnergyPerBitJ*1.10 {
		t.Errorf("oracle energy/bit %.3e noticeably worse than last-state %.3e",
			oracle.EnergyPerBitJ, last.EnergyPerBitJ)
	}
}

func TestAdaptiveDeliversEverything(t *testing.T) {
	s := sim.New(17)
	ch := channel.NewGilbertElliott(s, channel.GEParams{
		MeanGood: sim.Second, MeanBad: 300 * sim.Millisecond,
		BERGood: 1e-6, BERBad: 1e-4,
	})
	cfg := DefaultAdaptiveConfig(400)
	pred := &countingPredictor{Predictor: channel.NewMarkov()}
	r := RunAdaptive(s, ch, pred, cfg)
	want := 400 * cfg.GoodParams.PacketBytes
	// SR with a generous retry limit recovers everything on this channel.
	// The final epoch's packet quota rounds the payload up, so delivery may
	// overshoot by up to one packet of either parameter set.
	slack := cfg.GoodParams.PacketBytes + cfg.BadParams.PacketBytes
	if r.DeliveredBytes < want || r.DeliveredBytes > want+slack {
		t.Errorf("delivered %d bytes, want %d (+%d slack)", r.DeliveredBytes, want, slack)
	}
	if pred.predictions == 0 {
		t.Error("no epoch ran")
	}
}

// countingPredictor counts the forecasts RunAdaptive asks for: one per
// epoch.
type countingPredictor struct {
	channel.Predictor
	predictions int
}

func (p *countingPredictor) Predict() channel.LinkState {
	p.predictions++
	return p.Predictor.Predict()
}

// TestParamsValidateRejectsEveryBadField covers each field Transfer would
// otherwise choke on mid-run (a NaN rate overflows the stack, a negative
// delay panics in the kernel, an infinite rate gives zero airtime):
// Validate must name the problem and Transfer must panic with that link:
// error before scheduling anything.
func TestParamsValidateRejectsEveryBadField(t *testing.T) {
	cases := []struct {
		name string
		bad  func(*Params)
	}{
		{"BitRate NaN", func(p *Params) { p.BitRate = math.NaN() }},
		{"BitRate +Inf", func(p *Params) { p.BitRate = math.Inf(1) }},
		{"BitRate -Inf", func(p *Params) { p.BitRate = math.Inf(-1) }},
		{"BitRate zero", func(p *Params) { p.BitRate = 0 }},
		{"BitRate negative", func(p *Params) { p.BitRate = -2e6 }},
		{"PacketBytes zero", func(p *Params) { p.PacketBytes = 0 }},
		{"HeaderBytes negative", func(p *Params) { p.HeaderBytes = -1 }},
		{"AckBytes negative", func(p *Params) { p.AckBytes = -100 }},
		{"PropDelay negative", func(p *Params) { p.PropDelay = -sim.Millisecond }},
		{"RetryLimit negative", func(p *Params) { p.RetryLimit = -1 }},
		{"Deadline negative", func(p *Params) { p.Deadline = -sim.Second }},
		// An unknown discipline put no packet on the air, so on a live
		// channel Transfer never returned.
		{"ARQ unknown", func(p *Params) { p.ARQ = 7 }},
		{"ARQ negative", func(p *Params) { p.ARQ = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, arq := range []ARQKind{NoARQ, SelectiveRepeat} {
				p := DefaultParams()
				p.ARQ = arq
				tc.bad(&p)
				err := p.Validate()
				if err == nil || !strings.HasPrefix(err.Error(), "link: ") {
					t.Fatalf("%v: Validate = %v, want a link: error", arq, err)
				}
				func() {
					defer func() {
						if e, ok := recover().(error); !ok || e.Error() != err.Error() {
							t.Errorf("%v: Transfer panicked with %v, want %v", arq, e, err)
						}
					}()
					s := sim.New(1)
					Transfer(s, uniformChannel(s, 1e-6), p, 10)
				}()
			}
		})
	}
}

// TestTransferMarginalPacketAllocatesNothing pins the pooled event path:
// on a clean channel, moving twice the packets costs no extra allocation
// in any discipline.
func TestTransferMarginalPacketAllocatesNothing(t *testing.T) {
	for _, arq := range []ARQKind{NoARQ, SelectiveRepeat} {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(20, func() {
				s := sim.New(1)
				ch := channel.NewGilbertElliott(s, channel.GEParams{
					MeanGood: sim.Hour, MeanBad: sim.Second, BERGood: 0, BERBad: 0.5})
				ch.Freeze()
				p := DefaultParams()
				p.ARQ = arq
				p.PropDelay = 2 * sim.Millisecond // keep the SR window busy
				if r := Transfer(s, ch, p, n); r.DeliveredPackets != n {
					t.Fatalf("%v: delivered %d of %d", arq, r.DeliveredPackets, n)
				}
			})
		}
		if one, two := allocs(200), allocs(400); one != two {
			t.Errorf("%v: %v allocs for 200 packets, %v for 400", arq, one, two)
		}
	}
}
