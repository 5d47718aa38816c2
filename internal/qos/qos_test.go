package qos

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func spec() StreamSpec {
	return StreamSpec{RateBps: 80e3, PrebufferBytes: 10000, CapacityBytes: 100000}
	// 10 KB/s drain
}

func TestSpecValidate(t *testing.T) {
	if err := MP3Stream().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := StreamSpec{RateBps: 0, PrebufferBytes: 0, CapacityBytes: 1}
	if err := bad.Validate(); err == nil {
		t.Error("zero rate accepted")
	}
	bad2 := StreamSpec{RateBps: 1, PrebufferBytes: 10, CapacityBytes: 10}
	if err := bad2.Validate(); err == nil {
		t.Error("capacity == prebuffer accepted")
	}
}

func TestMP3StreamRate(t *testing.T) {
	s := MP3Stream()
	if s.BytesPerSecond() != 16000 {
		t.Errorf("MP3 drain = %v B/s, want 16000", s.BytesPerSecond())
	}
}

func TestPlaybackStartsAtPrebuffer(t *testing.T) {
	s := sim.New(1)
	b := NewPlayoutBuffer(s, spec())
	var startedAt sim.Time = -1
	b.OnStart = func(at sim.Time) { startedAt = at }
	b.Fill(5000)
	if b.Playing() {
		t.Error("started below prebuffer")
	}
	s.RunUntil(sim.Second)
	b.Fill(5000)
	if !b.Playing() {
		t.Error("did not start at prebuffer")
	}
	if startedAt != sim.Second {
		t.Errorf("started at %v, want 1s", startedAt)
	}
}

func TestDrainRate(t *testing.T) {
	s := sim.New(2)
	b := NewPlayoutBuffer(s, spec())
	b.Fill(50000)
	s.RunUntil(2 * sim.Second) // drains 20000
	if got := b.Level(); math.Abs(got-30000) > 1 {
		t.Errorf("level = %v, want 30000", got)
	}
	if got := b.ConsumedBytes(); math.Abs(got-20000) > 1 {
		t.Errorf("consumed = %v, want 20000", got)
	}
}

func TestUnderrunDetectedExactly(t *testing.T) {
	s := sim.New(3)
	b := NewPlayoutBuffer(s, spec())
	var dryAt sim.Time = -1
	b.OnUnderrun = func(at sim.Time) { dryAt = at }
	b.Fill(20000) // plays for exactly 2 s
	s.RunUntil(10 * sim.Second)
	if b.Underruns() != 1 {
		t.Fatalf("underruns = %d, want 1", b.Underruns())
	}
	if dryAt != 2*sim.Second {
		t.Errorf("dry at %v, want exactly 2s", dryAt)
	}
	if b.Playing() {
		t.Error("still playing after underrun")
	}
}

func TestRebufferAfterUnderrun(t *testing.T) {
	s := sim.New(4)
	b := NewPlayoutBuffer(s, spec())
	b.Fill(20000)
	s.RunUntil(5 * sim.Second) // dry at 2s, stalled 3s
	b.Fill(4000)               // below prebuffer: stays stalled
	if b.Playing() {
		t.Error("restarted below prebuffer")
	}
	b.Fill(6000) // reaches prebuffer: restart
	if !b.Playing() {
		t.Error("did not restart at prebuffer")
	}
	if got := b.StallTime(); got != 3*sim.Second {
		t.Errorf("stall time = %v, want 3s", got)
	}
}

func TestStallTimeWhileStillStalled(t *testing.T) {
	s := sim.New(5)
	b := NewPlayoutBuffer(s, spec())
	b.Fill(20000)
	s.RunUntil(4 * sim.Second) // dry at 2s
	if got := b.StallTime(); got != 2*sim.Second {
		t.Errorf("ongoing stall = %v, want 2s", got)
	}
}

func TestInitialWaitIsNotAStall(t *testing.T) {
	s := sim.New(6)
	b := NewPlayoutBuffer(s, spec())
	s.RunUntil(30 * sim.Second)
	if b.StallTime() != 0 {
		t.Error("pre-start waiting counted as stall")
	}
	if b.Underruns() != 0 {
		t.Error("pre-start waiting counted as underrun")
	}
}

func TestOverflowDropsExcess(t *testing.T) {
	s := sim.New(7)
	b := NewPlayoutBuffer(s, spec())
	b.Fill(150000) // capacity 100000
	if b.OverflowBytes() != 50000 {
		t.Errorf("overflow = %d, want 50000", b.OverflowBytes())
	}
	if got := b.Level(); math.Abs(got-100000) > 1e-9 {
		t.Errorf("level = %v, want capacity", got)
	}
}

func TestSteadyRefillsNeverUnderrun(t *testing.T) {
	s := sim.New(8)
	b := NewPlayoutBuffer(s, spec())
	b.Fill(20000)
	// Refill 10 KB every second — exactly the drain rate.
	sim.NewTicker(s, sim.Second, func() { b.Fill(10000) })
	s.RunUntil(60 * sim.Second)
	if b.Underruns() != 0 {
		t.Errorf("underruns = %d on a balanced refill", b.Underruns())
	}
	if !b.Playing() {
		t.Error("stopped playing")
	}
}

func TestTimeToEmpty(t *testing.T) {
	s := sim.New(9)
	b := NewPlayoutBuffer(s, spec())
	if b.TimeToEmpty() != sim.MaxTime {
		t.Error("stalled buffer should report MaxTime")
	}
	b.Fill(20000)
	if got := b.TimeToEmpty(); got != 2*sim.Second {
		t.Errorf("TimeToEmpty = %v, want 2s", got)
	}
}

func TestNegativeFillPanics(t *testing.T) {
	s := sim.New(10)
	b := NewPlayoutBuffer(s, spec())
	defer func() {
		if recover() == nil {
			t.Error("negative fill accepted")
		}
	}()
	b.Fill(-1)
}

func TestByteConservation(t *testing.T) {
	s := sim.New(11)
	b := NewPlayoutBuffer(s, spec())
	total := 0
	sim.NewTicker(s, 700*sim.Millisecond, func() {
		b.Fill(8000)
		total += 8000
	})
	s.RunUntil(30 * sim.Second)
	// received = consumed + level + overflow
	got := b.ConsumedBytes() + b.Level() + float64(b.OverflowBytes())
	if math.Abs(got-float64(b.ReceivedBytes())) > 1 {
		t.Errorf("conservation violated: consumed+level+overflow=%v received=%d",
			got, b.ReceivedBytes())
	}
}

// TestSpecValidateRejectsEveryBadField covers one bad field per case. A NaN
// or infinite rate used to pass and poison every drain computation.
func TestSpecValidateRejectsEveryBadField(t *testing.T) {
	cases := []struct {
		name string
		bad  func(*StreamSpec)
	}{
		{"RateBps NaN", func(s *StreamSpec) { s.RateBps = math.NaN() }},
		{"RateBps +Inf", func(s *StreamSpec) { s.RateBps = math.Inf(1) }},
		{"RateBps -Inf", func(s *StreamSpec) { s.RateBps = math.Inf(-1) }},
		{"RateBps zero", func(s *StreamSpec) { s.RateBps = 0 }},
		{"RateBps negative", func(s *StreamSpec) { s.RateBps = -128e3 }},
		{"PrebufferBytes negative", func(s *StreamSpec) { s.PrebufferBytes = -1 }},
		{"CapacityBytes at prebuffer", func(s *StreamSpec) { s.CapacityBytes = s.PrebufferBytes }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := MP3Stream()
			tc.bad(&s)
			if err := s.Validate(); err == nil {
				t.Fatal("Validate accepted the spec")
			}
			defer func() {
				if recover() == nil {
					t.Error("NewPlayoutBuffer accepted the spec")
				}
			}()
			NewPlayoutBuffer(sim.New(1), s)
		})
	}
}
