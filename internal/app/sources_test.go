package app

import (
	"testing"

	"repro/internal/sim"
)

func TestCBREmitsAtRate(t *testing.T) {
	s := sim.New(1)
	src := MP3CBR(s) // 16 KB/s in 4096-byte chunks: every 256 ms
	var total int
	src.Start(func(c Chunk) { total += c.Bytes })
	s.RunUntil(10 * sim.Second)
	want := int(10*16000/4096) * 4096 // 39 chunks
	if total != want {
		t.Errorf("emitted %d bytes in 10s, want %d", total, want)
	}
}

func TestCBRStops(t *testing.T) {
	s := sim.New(2)
	src := NewCBR(s, 80e3, 1000)
	n := 0
	src.Start(func(Chunk) { n++ })
	s.RunUntil(sim.Second)
	src.Stop()
	before := n
	s.RunUntil(2 * sim.Second)
	if n != before {
		t.Error("source kept emitting after Stop")
	}
}

func TestCBRDoubleStartPanics(t *testing.T) {
	s := sim.New(3)
	src := NewCBR(s, 80e3, 1000)
	src.Start(func(Chunk) {})
	defer func() {
		if recover() == nil {
			t.Error("double start accepted")
		}
	}()
	src.Start(func(Chunk) {})
}

func TestLayeredSplitsLayers(t *testing.T) {
	s := sim.New(4)
	src := NewLayered(s, 128e3, 768e3)
	var audio, video int
	src.Start(func(c Chunk) {
		if c.Layer == 0 {
			audio += c.Bytes
		} else {
			video += c.Bytes
		}
	})
	s.RunUntil(10 * sim.Second)
	if audio == 0 || video == 0 {
		t.Fatalf("audio=%d video=%d, want both nonzero", audio, video)
	}
	// Video at 6x audio rate: ratio should be near 6.
	ratio := float64(video) / float64(audio)
	if ratio < 4 || ratio > 8 {
		t.Errorf("video/audio ratio = %.1f, want ≈ 6", ratio)
	}
}

func TestLayeredVideoToggle(t *testing.T) {
	s := sim.New(5)
	src := NewLayered(s, 128e3, 768e3)
	var video int
	src.Start(func(c Chunk) {
		if c.Layer == 1 {
			video += c.Bytes
		}
	})
	s.RunUntil(2 * sim.Second)
	src.SetVideo(false)
	snapshot := video
	s.RunUntil(10 * sim.Second)
	if video != snapshot {
		t.Error("video kept flowing after SetVideo(false)")
	}
	src.SetVideo(true)
	s.RunUntil(12 * sim.Second)
	if video == snapshot {
		t.Error("video did not resume")
	}
}

// Stop halts emission.
func (c *CBR) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
}
