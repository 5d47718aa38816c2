package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFlags pins macbench's usage errors: fewer than one station used
// to print a table of NaN (-stations 0) or panic in a pool goroutine
// (-stations -1).
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		stations       int
		rate, duration float64
		want           string // substring of the error; empty means accepted
	}{
		{4, 16, 30, ""},
		{1, 16, 30, ""},
		{0, 16, 30, "-stations must be positive (got 0)"},
		{-1, 16, 30, "-stations must be positive (got -1)"},
		{4, 0, 30, "-rate must be positive"},
		{4, 16, math.NaN(), "-duration must be finite"},
	} {
		err := checkFlags(c.stations, c.rate, c.duration)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v rejected: %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one containing %q", c, err, c.want)
		}
	}
}
