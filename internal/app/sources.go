// Package app provides the traffic workloads the experiments stream through
// the system: CBR audio (the paper's MP3 scenario) and layered audio+video
// for proxy adaptation. Both sources are deterministic for a given
// simulator seed.
package app

import (
	"fmt"

	"repro/internal/sim"
)

// Chunk is one emitted unit of application data.
type Chunk struct {
	Bytes int
	// Layer tags layered streams: 0 = base (audio), 1 = enhancement
	// (video). Single-layer sources always emit layer 0.
	Layer int
}

// Sink consumes emitted chunks.
type Sink func(c Chunk)

// CBR emits fixed-size chunks at a constant interval: the shape of the
// paper's "high-quality MP3 audio" stream.
type CBR struct {
	sim        *sim.Simulator
	ChunkBytes int
	Interval   sim.Time
	ticker     *sim.Ticker
}

// NewCBR creates a constant-bit-rate source. rateBps/chunkBytes determine
// the emission interval.
func NewCBR(s *sim.Simulator, rateBps float64, chunkBytes int) *CBR {
	if rateBps <= 0 || chunkBytes <= 0 {
		panic(fmt.Sprintf("app: invalid CBR rate=%g chunk=%d", rateBps, chunkBytes))
	}
	interval := sim.FromSeconds(float64(chunkBytes*8) / rateBps)
	return &CBR{sim: s, ChunkBytes: chunkBytes, Interval: interval}
}

// MP3CBR returns the paper's 128 kb/s audio source in 4 KB chunks
// (16 KB/s ⇒ one chunk every 250 ms).
func MP3CBR(s *sim.Simulator) *CBR { return NewCBR(s, 128e3, 4096) }

// Start begins emitting into sink.
func (c *CBR) Start(sink Sink) {
	if c.ticker != nil {
		panic("app: CBR already started")
	}
	c.ticker = sim.NewTicker(c.sim, c.Interval, func() {
		sink(Chunk{Bytes: c.ChunkBytes})
	})
}

// Layered emits a base audio layer plus a video enhancement layer. The
// enhancement layer can be toggled off by a proxy adapter ("dropping video
// content and delivering only audio in adverse conditions").
type Layered struct {
	sim       *sim.Simulator
	audio     *CBR
	videoRate float64
	videoSize int
	videoOn   bool
}

// NewLayered creates a layered source: audioRate base + videoRate
// enhancement (bits/second each).
func NewLayered(s *sim.Simulator, audioRate, videoRate float64) *Layered {
	l := &Layered{
		sim:       s,
		audio:     NewCBR(s, audioRate, 4096),
		videoRate: videoRate,
		videoSize: 8192,
		videoOn:   true,
	}
	return l
}

// Start begins emitting into sink.
func (l *Layered) Start(sink Sink) {
	l.audio.Start(sink)
	interval := sim.FromSeconds(float64(l.videoSize*8) / l.videoRate)
	sim.NewTicker(l.sim, interval, func() {
		if !l.videoOn {
			return
		}
		sink(Chunk{Bytes: l.videoSize, Layer: 1})
	})
}

// SetVideo enables or disables the enhancement layer.
func (l *Layered) SetVideo(on bool) { l.videoOn = on }
