package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestPowerTraceAt(t *testing.T) {
	var p PowerTrace
	p.Record(sim.Second, 1.0)
	p.Record(2*sim.Second, 0.1)
	if got := p.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0 (before first sample)", got)
	}
	if got := p.At(1500 * sim.Millisecond); got != 1.0 {
		t.Errorf("At(1.5s) = %v, want 1.0", got)
	}
	if got := p.At(3 * sim.Second); got != 0.1 {
		t.Errorf("At(3s) = %v, want 0.1", got)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestPowerTraceOrderEnforced(t *testing.T) {
	var p PowerTrace
	p.Record(2*sim.Second, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order sample accepted")
		}
	}()
	p.Record(sim.Second, 1)
}

func TestTransferLane(t *testing.T) {
	g := NewGantt(0, 10*sim.Second, 20)
	lane := g.TransferLane(0, []Window{
		{Lane: 0, Start: 0, End: sim.Second},
		{Lane: 1, Start: 5 * sim.Second, End: 6 * sim.Second}, // other lane
	})
	if !strings.HasPrefix(lane, "##") {
		t.Errorf("lane = %q, want transfer at start", lane)
	}
	if strings.Contains(lane[8:], "#") {
		t.Errorf("lane = %q shows another lane's window", lane)
	}
}

func TestPowerLaneGlyphs(t *testing.T) {
	g := NewGantt(0, 10*sim.Second, 10)
	g.MaxPower = 1.0
	var p PowerTrace
	p.Record(0, 0.01)            // deep sleep
	p.Record(5*sim.Second, 0.99) // high
	lane := g.PowerLane(&p)
	if lane[0] != '_' {
		t.Errorf("lane = %q, want deep-sleep glyph first", lane)
	}
	if lane[9] != '^' {
		t.Errorf("lane = %q, want high glyph last", lane)
	}
}

func TestFigure1Renders(t *testing.T) {
	g := NewGantt(0, 30*sim.Second, 60)
	traces := map[int]*PowerTrace{0: {}, 1: {}}
	traces[0].Record(0, 0.01)
	traces[1].Record(0, 0.01)
	out := Figure1(g, []int{0, 1}, []Window{
		{Lane: 0, Start: sim.Second, End: 2 * sim.Second},
		{Lane: 1, Start: 3 * sim.Second, End: 4 * sim.Second},
	}, traces)
	for _, want := range []string{"Data transfer", "Power levels", "client 0", "client 1", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure missing %q:\n%s", want, out)
		}
	}
}

func TestNewGanttValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad window accepted")
		}
	}()
	NewGantt(sim.Second, sim.Second, 10)
}

func TestPowerTraceMaxIn(t *testing.T) {
	var p PowerTrace
	p.Record(0, 0.01)
	p.Record(sim.Second, 1.4) // short spike
	p.Record(1100*sim.Millisecond, 0.01)
	// Window covering the spike sees the peak even though both edges are low.
	if got := p.MaxIn(900*sim.Millisecond, 2*sim.Second); got != 1.4 {
		t.Errorf("MaxIn = %v, want 1.4", got)
	}
	// Window before the spike sees only the base level.
	if got := p.MaxIn(0, 500*sim.Millisecond); got != 0.01 {
		t.Errorf("MaxIn = %v, want 0.01", got)
	}
}
