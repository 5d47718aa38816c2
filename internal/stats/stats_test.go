package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasic(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// population variance is 4; sample variance = 32/7
	if !almostEq(s.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if !almostEq(s.Sum(), 40, 1e-9) {
		t.Errorf("Sum = %v, want 40", s.Sum())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdDev() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestSummaryAddN(t *testing.T) {
	var a, b Summary
	a.AddN(3.5, 4)
	for i := 0; i < 4; i++ {
		b.Add(3.5)
	}
	if a.N() != b.N() || a.Mean() != b.Mean() {
		t.Error("AddN disagrees with repeated Add")
	}
}

// Property: mean lies within [min, max] and variance is non-negative.
func TestSummaryProperty(t *testing.T) {
	prop := func(xs []float64) bool {
		var s Summary
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Keep magnitudes sane to avoid float overflow artifacts.
			if math.Abs(x) > 1e12 {
				x = math.Mod(x, 1e12)
			}
			s.Add(x)
		}
		if s.N() > 0 {
			ok = ok && s.Mean() >= s.Min()-1e-6 && s.Mean() <= s.Max()+1e-6
			ok = ok && s.Variance() >= -1e-9
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestJainFairness(t *testing.T) {
	if f := JainFairness([]float64{1, 1, 1, 1}); !almostEq(f, 1, 1e-12) {
		t.Errorf("equal allocations fairness = %v, want 1", f)
	}
	if f := JainFairness([]float64{1, 0, 0, 0}); !almostEq(f, 0.25, 1e-12) {
		t.Errorf("maximally unfair = %v, want 0.25", f)
	}
	if f := JainFairness(nil); f != 0 {
		t.Errorf("empty fairness = %v, want 0", f)
	}
	if f := JainFairness([]float64{0, 0}); f != 1 {
		t.Errorf("all-zero fairness = %v, want 1", f)
	}
}

// Property: Jain's index always lies in [1/n, 1] for non-negative inputs.
func TestJainFairnessBoundsProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		f := JainFairness(xs)
		n := float64(len(xs))
		return f >= 1/n-1e-9 && f <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure 2", "strategy", "power (W)")
	tb.AddRow("WLAN", "1.40")
	tb.AddRow("Bluetooth", "0.45")
	tb.AddRowf("Hotspot", "%.2f", 0.04)
	tb.AddNote("saving %.0f%%", 97.0)
	out := tb.String()
	for _, want := range []string{"Figure 2", "strategy", "WLAN", "Bluetooth", "0.04", "note: saving 97%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 3 {
		t.Errorf("NumRows = %d, want 3", tb.NumRows())
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 3 rows + note
	if len(lines) != 7 {
		t.Errorf("table has %d lines, want 7:\n%s", len(lines), out)
	}
}

func TestTableExtraCells(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x", "y", "z")
	out := tb.String()
	if !strings.Contains(out, "z") {
		t.Errorf("extra cells dropped:\n%s", out)
	}
}

// AddN records the same sample value n times.
func (s *Summary) AddN(x float64, n int64) {
	for i := int64(0); i < n; i++ {
		s.Add(x)
	}
}

// Sum returns mean*n, the total of all samples.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// AddRowf appends a row where each cell is built with fmt.Sprintf over one
// value, using a shared verb such as "%.3f" for numeric columns.
func (t *Table) AddRowf(label string, verb string, values ...float64) {
	cells := make([]string, 0, len(values)+1)
	cells = append(cells, label)
	for _, v := range values {
		cells = append(cells, fmt.Sprintf(verb, v))
	}
	t.rows = append(t.rows, cells)
}

// NumRows returns the number of body rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }
