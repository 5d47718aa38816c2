// Package trace records client power trajectories and renders the paper's
// Figure 1: a Gantt-style view with each client's data-transfer windows on
// top and its WNIC power levels beneath, demonstrating that centralized
// scheduling lets every client know exactly when to wake and when to sleep.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// PowerSample is one step of a piecewise-constant power trajectory.
type PowerSample struct {
	At    sim.Time
	Watts float64
}

// PowerTrace records a client's combined radio draw over time.
type PowerTrace struct {
	samples []PowerSample
}

// Record appends a sample; timestamps must be non-decreasing.
func (p *PowerTrace) Record(at sim.Time, watts float64) {
	if n := len(p.samples); n > 0 && at < p.samples[n-1].At {
		panic("trace: power samples out of order")
	}
	p.samples = append(p.samples, PowerSample{At: at, Watts: watts})
}

// Len returns the number of recorded samples.
func (p *PowerTrace) Len() int { return len(p.samples) }

// At returns the power level in effect at time t (0 before first sample).
func (p *PowerTrace) At(t sim.Time) float64 {
	i := sort.Search(len(p.samples), func(i int) bool { return p.samples[i].At > t })
	if i == 0 {
		return 0
	}
	return p.samples[i-1].Watts
}

// Window is a labelled activity interval (a transfer slot) on a lane.
type Window struct {
	Lane  int // client id
	Start sim.Time
	End   sim.Time
}

// Gantt renders transfer windows and power lanes as fixed-width text.
type Gantt struct {
	From, To sim.Time
	Width    int // columns
	// MaxPower scales the power glyphs; 0 auto-scales per lane.
	MaxPower float64
}

// NewGantt creates a renderer over [from, to] with the given column count.
func NewGantt(from, to sim.Time, width int) *Gantt {
	if to <= from || width <= 0 {
		panic(fmt.Sprintf("trace: bad gantt window [%v, %v] x %d", from, to, width))
	}
	return &Gantt{From: from, To: to, Width: width}
}

// colOf maps a time to a column (clamped).
func (g *Gantt) colOf(t sim.Time) int {
	frac := float64(t-g.From) / float64(g.To-g.From)
	c := int(frac * float64(g.Width))
	if c < 0 {
		c = 0
	}
	if c >= g.Width {
		c = g.Width - 1
	}
	return c
}

// TransferLane renders one client's transfer windows as a bar row.
func (g *Gantt) TransferLane(lane int, windows []Window) string {
	row := make([]byte, g.Width)
	for i := range row {
		row[i] = '.'
	}
	for _, w := range windows {
		if w.Lane != lane || w.End < g.From || w.Start > g.To {
			continue
		}
		for c := g.colOf(w.Start); c <= g.colOf(w.End); c++ {
			row[c] = '#'
		}
	}
	return string(row)
}

// powerGlyphs maps normalized power quartiles to glyphs: deep sleep, low,
// medium, high.
var powerGlyphs = []byte{'_', '-', '=', '^'}

// MaxIn returns the highest power level in effect anywhere within [t0, t1).
func (p *PowerTrace) MaxIn(t0, t1 sim.Time) float64 {
	max := p.At(t0) // level carried into the window
	i := sort.Search(len(p.samples), func(i int) bool { return p.samples[i].At >= t0 })
	for ; i < len(p.samples) && p.samples[i].At < t1; i++ {
		if p.samples[i].Watts > max {
			max = p.samples[i].Watts
		}
	}
	return max
}

// PowerLane renders one client's power trajectory. Each column shows the
// peak level within its window, so even bursts much shorter than a column
// remain visible.
func (g *Gantt) PowerLane(trace *PowerTrace) string {
	maxW := g.MaxPower
	if maxW <= 0 {
		for _, s := range trace.samples {
			if s.Watts > maxW {
				maxW = s.Watts
			}
		}
		if maxW <= 0 {
			maxW = 1
		}
	}
	row := make([]byte, g.Width)
	colDur := (g.To - g.From) / sim.Time(g.Width)
	for c := 0; c < g.Width; c++ {
		t := g.From + sim.Time(c)*colDur
		w := trace.MaxIn(t, t+colDur)
		idx := int(w / maxW * float64(len(powerGlyphs)))
		if idx >= len(powerGlyphs) {
			idx = len(powerGlyphs) - 1
		}
		if idx < 0 {
			idx = 0
		}
		row[c] = powerGlyphs[idx]
	}
	return string(row)
}

// Axis renders a time axis with tick marks every quarter.
func (g *Gantt) Axis() string {
	row := []byte(strings.Repeat(" ", g.Width))
	labels := ""
	for q := 0; q <= 4; q++ {
		t := g.From + (g.To-g.From)*sim.Time(q)/4
		col := 0
		if q > 0 {
			col = q*g.Width/4 - 1
		}
		row[col] = '|'
		labels += fmt.Sprintf("%-*s", g.Width/4, t.String())
	}
	return string(row) + "\n" + labels[:min(len(labels), g.Width+12)]
}

// Figure1 renders the full figure: per-client transfer lanes on top, power
// lanes beneath — the layout of the paper's Figure 1.
func Figure1(g *Gantt, clients []int, windows []Window, traces map[int]*PowerTrace) string {
	var b strings.Builder
	b.WriteString("Data transfer\n")
	for _, id := range clients {
		fmt.Fprintf(&b, "  client %d  %s\n", id, g.TransferLane(id, windows))
	}
	b.WriteString("Power levels\n")
	for _, id := range clients {
		tr := traces[id]
		if tr == nil {
			tr = &PowerTrace{}
		}
		fmt.Fprintf(&b, "  client %d  %s\n", id, g.PowerLane(tr))
	}
	fmt.Fprintf(&b, "%12s%s\n", "", g.Axis())
	b.WriteString("  legend: '#' transfer slot; power: '_' deep sleep, '-' low, '=' mid, '^' high\n")
	return b.String()
}
