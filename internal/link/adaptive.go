package link

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/sim"
)

// AdaptiveConfig drives epoch-based adaptive ARQ: at the start of each
// epoch a channel predictor forecasts the link state and the link layer
// switches between a good-channel parameter set (long packets, little or no
// FEC) and a bad-channel set (short packets, strong FEC) — the paper's
// "adaptation of ARQ to the current channel state".
type AdaptiveConfig struct {
	// Epoch is the adaptation granularity.
	Epoch sim.Time
	// GoodParams is used when the predictor forecasts a good channel.
	GoodParams Params
	// BadParams is used when the predictor forecasts a bad channel.
	BadParams Params
	// TotalPackets is the number of GoodParams-sized payload units to move.
	// (BadParams epochs move the same payload in more, smaller packets.)
	TotalPackets int
}

// DefaultAdaptiveConfig returns the E9 setup.
func DefaultAdaptiveConfig(total int) AdaptiveConfig {
	good := DefaultParams()
	good.PacketBytes = 1400
	good.Code = NoCode(1400)
	bad := DefaultParams()
	bad.PacketBytes = 300
	bad.Code = NewBCHLike(300, 12)
	return AdaptiveConfig{
		Epoch:        500 * sim.Millisecond,
		GoodParams:   good,
		BadParams:    bad,
		TotalPackets: total,
	}
}

// Validate checks the configuration.
func (c AdaptiveConfig) Validate() error {
	if c.Epoch <= 0 || c.TotalPackets <= 0 {
		return fmt.Errorf("link: invalid adaptive config")
	}
	if err := c.GoodParams.Validate(); err != nil {
		return err
	}
	return c.BadParams.Validate()
}

// AdaptiveResult reports an adaptive transfer's outcome.
type AdaptiveResult struct {
	DeliveredBytes int
	LostPackets    int
	Transmissions  int
	Acks           int
	Duration       sim.Time
	EnergyJ        float64
	GoodputBps     float64
	EnergyPerBitJ  float64

	PredictorName  string
	Accuracy       float64
	PredictionCost float64
}

// RunAdaptive moves cfg.TotalPackets worth of payload, re-deciding link
// parameters every epoch from the predictor's forecast. Accuracy is scored
// against the channel state at each epoch's start; the Oracle predictor is
// primed with that state, making it the upper bound the paper's prediction
// trade-off is measured against.
func RunAdaptive(s *sim.Simulator, ch *channel.GilbertElliott, pred channel.Predictor, cfg AdaptiveConfig) AdaptiveResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	var (
		acc         channel.Accuracy
		out         AdaptiveResult
		payloadLeft = cfg.TotalPackets * cfg.GoodParams.PacketBytes
	)
	for payloadLeft > 0 {
		actual := ch.State()
		if o, isOracle := pred.(*channel.Oracle); isOracle {
			o.Prime(actual)
		}
		forecast := pred.Predict()
		out.PredictionCost += pred.Cost()

		params := cfg.GoodParams
		if forecast == channel.Bad {
			params = cfg.BadParams
		}

		// The epoch is time-bounded: the transfer stops opening new work at
		// the deadline so one bad epoch cannot drag the stale parameter set
		// across several channel periods. The packet quota merely caps the
		// epoch at the remaining payload.
		params.Deadline = s.Now() + cfg.Epoch
		remainingPkts := (payloadLeft + params.PacketBytes - 1) / params.PacketBytes

		r := Transfer(s, ch, params, remainingPkts)
		out.DeliveredBytes += r.DeliveredPackets * params.PacketBytes
		out.LostPackets += r.LostPackets
		out.Transmissions += r.Transmissions
		out.Acks += r.Acks
		out.Duration += r.Duration
		out.EnergyJ += r.EnergyJ
		processed := (r.DeliveredPackets + r.LostPackets) * params.PacketBytes
		if processed == 0 {
			// Guarantee progress even if a pathological epoch finished no
			// packet at all (e.g. a deadline shorter than one exchange).
			processed = params.PacketBytes
			out.LostPackets++
		}
		payloadLeft -= processed

		acc.Record(forecast, actual)
		pred.Observe(actual)
	}
	out.PredictorName = pred.Name()
	out.Accuracy = acc.Rate()
	bits := float64(out.DeliveredBytes * 8)
	if out.Duration > 0 {
		out.GoodputBps = bits / out.Duration.Seconds()
	}
	if bits > 0 {
		out.EnergyPerBitJ = out.EnergyJ / bits
	}
	return out
}
