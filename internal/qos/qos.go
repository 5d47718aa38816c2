// Package qos models quality-of-service for streaming delivery: stream
// specifications and a continuously draining playout buffer whose underruns
// are precisely what "QoS is maintained" means in the paper's Hotspot
// experiment — the audio never stalls even though the WNIC sleeps between
// bursts.
package qos

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// StreamSpec describes a client's streaming requirement.
type StreamSpec struct {
	// RateBps is the playback consumption rate in bits per second.
	RateBps float64
	// PrebufferBytes must accumulate before playback (re)starts.
	PrebufferBytes int
	// CapacityBytes bounds the buffer; overflow is dropped and counted.
	CapacityBytes int
}

// MP3Stream returns the paper's workload: high-quality 128 kb/s MP3 audio
// with a two-second prebuffer and a capacity comfortably above one
// scheduling burst.
func MP3Stream() StreamSpec {
	return StreamSpec{
		RateBps:        128e3,
		PrebufferBytes: 32 * 1024,  // 2 s at 16 KB/s
		CapacityBytes:  512 * 1024, // several bursts
	}
}

// Validate checks the specification.
func (s StreamSpec) Validate() error {
	if !(s.RateBps > 0) || math.IsInf(s.RateBps, 1) {
		return fmt.Errorf("qos: rate %g must be positive and finite", s.RateBps)
	}
	if s.PrebufferBytes < 0 || s.CapacityBytes <= s.PrebufferBytes {
		return fmt.Errorf("qos: capacity must exceed prebuffer")
	}
	return nil
}

// BytesPerSecond returns the drain rate in bytes/second.
func (s StreamSpec) BytesPerSecond() float64 { return s.RateBps / 8 }

// PlayoutBuffer is a continuously draining media buffer. Between events the
// level is computed analytically; an "empty" event is kept scheduled for the
// moment the buffer would run dry, so underruns are detected exactly.
type PlayoutBuffer struct {
	sim  *sim.Simulator
	spec StreamSpec

	level   float64 // bytes, settled at lastAt
	lastAt  sim.Time
	playing bool
	started bool       // playback has begun at least once
	dry     *sim.Timer // fires at the instant the buffer would run dry

	underruns  int
	stallStart sim.Time
	stallTotal sim.Time
	overflow   int
	received   int
	consumed   float64

	// OnUnderrun is invoked when the buffer runs dry during playback.
	OnUnderrun func(at sim.Time)
	// OnStart is invoked each time playback (re)starts.
	OnStart func(at sim.Time)
}

// NewPlayoutBuffer creates an empty, stalled buffer (waiting for prebuffer).
func NewPlayoutBuffer(s *sim.Simulator, spec StreamSpec) *PlayoutBuffer {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	b := &PlayoutBuffer{sim: s, spec: spec, lastAt: s.Now(), stallStart: s.Now()}
	b.dry = sim.NewTimer(s, b.dryOut)
	return b
}

// settle advances the analytic drain to the current instant.
func (b *PlayoutBuffer) settle() {
	now := b.sim.Now()
	dt := (now - b.lastAt).Seconds()
	if dt > 0 && b.playing {
		drained := b.spec.BytesPerSecond() * dt
		if drained >= b.level {
			drained = b.level
		}
		b.level -= drained
		b.consumed += drained
	}
	b.lastAt = now
}

// Level returns the current buffer level in bytes.
func (b *PlayoutBuffer) Level() float64 {
	b.settle()
	return b.level
}

// Playing reports whether playback is currently running.
func (b *PlayoutBuffer) Playing() bool { return b.playing }

// Underruns returns the number of mid-playback stalls.
func (b *PlayoutBuffer) Underruns() int { return b.underruns }

// OverflowBytes returns bytes dropped to the capacity bound.
func (b *PlayoutBuffer) OverflowBytes() int { return b.overflow }

// ReceivedBytes returns total bytes accepted into the buffer.
func (b *PlayoutBuffer) ReceivedBytes() int { return b.received }

// ConsumedBytes returns total bytes played out.
func (b *PlayoutBuffer) ConsumedBytes() float64 {
	b.settle()
	return b.consumed
}

// StallTime returns cumulative time spent stalled after first start.
func (b *PlayoutBuffer) StallTime() sim.Time {
	if !b.playing && b.started {
		return b.stallTotal + (b.sim.Now() - b.stallStart)
	}
	return b.stallTotal
}

// Fill adds delivered bytes, possibly starting playback, and reschedules the
// dry-out watchdog.
func (b *PlayoutBuffer) Fill(bytes int) {
	if bytes < 0 {
		panic("qos: negative fill")
	}
	b.settle()
	space := float64(b.spec.CapacityBytes) - b.level
	add := float64(bytes)
	if add > space {
		b.overflow += int(add - space)
		add = space
	}
	b.level += add
	b.received += bytes
	if !b.playing && b.level >= float64(b.spec.PrebufferBytes) {
		b.playing = true
		if b.started {
			b.stallTotal += b.sim.Now() - b.stallStart
		}
		b.started = true
		if b.OnStart != nil {
			b.OnStart(b.sim.Now())
		}
	}
	b.rearmEmptyWatchdog()
}

// rearmEmptyWatchdog schedules detection of the exact dry-out instant.
func (b *PlayoutBuffer) rearmEmptyWatchdog() {
	if !b.playing {
		b.dry.Stop()
		return
	}
	b.dry.Reset(sim.FromSeconds(b.level / b.spec.BytesPerSecond()))
}

// dryOut is the dry-out watchdog event: it stalls playback if the buffer
// really is empty when it fires.
func (b *PlayoutBuffer) dryOut() {
	b.settle()
	if b.playing && b.level <= 1e-9 {
		b.playing = false
		b.level = 0
		b.underruns++
		b.stallStart = b.sim.Now()
		if b.OnUnderrun != nil {
			b.OnUnderrun(b.sim.Now())
		}
	}
}

// TimeToEmpty returns how long playback can continue without another fill
// (MaxTime when not playing).
func (b *PlayoutBuffer) TimeToEmpty() sim.Time {
	b.settle()
	if !b.playing {
		return sim.MaxTime
	}
	return sim.FromSeconds(b.level / b.spec.BytesPerSecond())
}
