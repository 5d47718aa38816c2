package link

import (
	"repro/internal/channel"
	"repro/internal/sim"
)

// refTransfer, refRunAdaptive and refEngine are the package's original
// transfer engine: one closure per airtime completion and per ACK, map
// retry counts in selective repeat, and a re-sliced
// retransmission queue. They are kept verbatim as the oracle the pooled
// engine must match bit for bit (oracle_test.go); only the energy sum
// carries the explicit product rounding engine.result has, so the two
// agree on targets that fuse multiply-adds.

func refTransfer(s *sim.Simulator, ch *channel.GilbertElliott, p Params, totalPackets int) Result {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if totalPackets <= 0 {
		panic("link: totalPackets must be positive")
	}
	// Reserve the transfer's concurrent event capacity up front so the
	// per-packet scheduling hot path never grows the slab mid-transfer.
	s.Reserve(window(p))
	eng := &refEngine{s: s, ch: ch, p: p, total: totalPackets}
	switch p.ARQ {
	case NoARQ:
		eng.runNoARQ()
	case SelectiveRepeat:
		eng.runSelectiveRepeat()
	}
	s.Run()
	return eng.result()
}

// refEngine holds shared transfer state. A finished refEngine deliberately never
// cancels its leftover queued events: their completions still draw from
// the channel's error process when they fire (the done-guards make them
// no-ops otherwise), and the adaptive-ARQ experiments run several
// transfers on one simulator — cancelling would shift every later RNG
// draw.
type refEngine struct {
	s     *sim.Simulator
	ch    *channel.GilbertElliott
	p     Params
	total int

	startAt   sim.Time
	endAt     sim.Time
	delivered int
	lost      int
	txCount   int
	ackCount  int
	started   bool
	done      bool
}

func (e *refEngine) begin() {
	if !e.started {
		e.started = true
		e.startAt = e.s.Now()
	}
}

// expired reports whether the transfer's deadline has passed.
func (e *refEngine) expired() bool {
	return e.p.Deadline > 0 && e.s.Now() >= e.p.Deadline
}

// finish stamps the transfer end and stops the simulator loop: the channel
// process schedules events forever, so Transfer's Run would never drain.
// Engines are reused never; the done flag also inert-izes any of this
// refEngine's events that remain queued when the same simulator hosts a
// subsequent transfer (adaptive ARQ runs one per epoch).
func (e *refEngine) finish() {
	if e.done {
		return
	}
	e.done = true
	e.endAt = e.s.Now()
	e.s.Stop()
}

// sendPacket models one data-packet transmission: occupies airtime, then
// samples the channel at completion. ok means the FEC decoded the block.
func (e *refEngine) sendPacket(done func(ok bool)) {
	e.begin()
	e.txCount++
	e.s.Schedule(e.p.airTime(), func() {
		errs := e.ch.SampleBitErrors(e.p.wireBytes())
		done(e.p.Code.Corrects(errs))
	})
}

// ackDelay is the time from data-packet completion to ACK receipt.
func (e *refEngine) ackDelay() sim.Time {
	return 2*e.p.PropDelay + e.p.ackTime()
}

func (e *refEngine) result() Result {
	dur := e.endAt - e.startAt
	r := Result{
		DeliveredPackets: e.delivered,
		LostPackets:      e.lost,
		Transmissions:    e.txCount,
		Acks:             e.ackCount,
		Duration:         dur,
	}
	if dur <= 0 {
		return r
	}
	payloadBits := float64(e.delivered * e.p.PacketBytes * 8)

	air := e.p.airTime().Seconds()
	ack := e.p.ackTime().Seconds()
	txTime := float64(float64(e.txCount) * air)
	ackTime := float64(float64(e.ackCount) * ack)
	total := dur.Seconds()
	senderE := float64(txTime*e.p.TxPower) + float64(ackTime*e.p.RxPower) +
		float64((total-txTime-ackTime)*e.p.IdlePower)
	receiverE := float64(txTime*e.p.RxPower) + float64(ackTime*e.p.TxPower) +
		float64((total-txTime-ackTime)*e.p.IdlePower)
	r.EnergyJ = senderE + receiverE
	if payloadBits > 0 {
		r.EnergyPerBitJ = r.EnergyJ / payloadBits
	}
	return r
}

// --- NoARQ: fire and forget ---

func (e *refEngine) runNoARQ() {
	var sendNext func(i int)
	sendNext = func(i int) {
		if e.done {
			return
		}
		if i >= e.total || e.expired() {
			e.finish()
			return
		}
		e.sendPacket(func(ok bool) {
			if e.done {
				return
			}
			if ok {
				e.delivered++
			} else {
				e.lost++
			}
			sendNext(i + 1)
		})
	}
	sendNext(0)
}

// --- Selective repeat ---

func (e *refEngine) runSelectiveRepeat() {
	acked := make([]bool, e.total)
	lostSet := make([]bool, e.total)
	attempts := make(map[int]int)
	base := 0
	sending := false
	var queue []int // retransmission queue
	nextFresh := 0

	var pump func()
	pump = func() {
		if e.done || sending {
			return
		}
		// Advance base past acked/lost packets.
		for base < e.total && (acked[base] || lostSet[base]) {
			base++
		}
		if base >= e.total || e.expired() {
			e.finish()
			return
		}
		// Pick retransmission first, else a fresh packet inside the window.
		seq := -1
		for len(queue) > 0 {
			cand := queue[0]
			queue = queue[1:]
			if !acked[cand] && !lostSet[cand] {
				seq = cand
				break
			}
		}
		if seq == -1 {
			if nextFresh < e.total && nextFresh < base+e.p.Window {
				seq = nextFresh
				nextFresh++
			} else {
				return // waiting for ACKs/NACKs
			}
		}
		sending = true
		e.sendPacket(func(ok bool) {
			if e.done {
				return
			}
			sending = false
			e.s.Schedule(e.ackDelay(), func() {
				if e.done {
					return
				}
				e.ackCount++
				if ok {
					if !acked[seq] {
						acked[seq] = true
						e.delivered++
					}
				} else {
					attempts[seq]++
					if attempts[seq] > e.p.RetryLimit {
						lostSet[seq] = true
						e.lost++
					} else {
						queue = append(queue, seq)
					}
				}
				pump()
			})
			pump()
		})
	}
	pump()
}

func refRunAdaptive(s *sim.Simulator, ch *channel.GilbertElliott, pred channel.Predictor, cfg AdaptiveConfig) AdaptiveResult {
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
			out.EpochsBad++
		} else {
			out.EpochsGood++
		}

		// The epoch is time-bounded: the transfer stops opening new work at
		// the deadline so one bad epoch cannot drag the stale parameter set
		// across several channel periods. The packet quota merely caps the
		// epoch at the remaining payload.
		params.Deadline = s.Now() + cfg.Epoch
		remainingPkts := (payloadLeft + params.PacketBytes - 1) / params.PacketBytes

		r := refTransfer(s, ch, params, remainingPkts)
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
