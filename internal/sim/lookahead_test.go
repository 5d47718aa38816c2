package sim

import (
	"math/rand"
	"testing"
)

// scanQueue is the brute-force Lookahead: a scan of every queued entry,
// the front register and cancelled heap entries included, capped at
// horizon.
func scanQueue(s *Simulator, horizon Time) (first Time, n int, next Time) {
	entries := append([]heapEntry(nil), s.queue...)
	if s.hasFront {
		entries = append(entries, s.front)
	}
	return scanTimes(entries, horizon)
}

// scanTimes is Lookahead's answer for the given entries.
func scanTimes(entries []heapEntry, horizon Time) (first Time, n int, next Time) {
	first, next = MaxTime, MaxTime
	for _, en := range entries {
		switch {
		case en.at < first:
			first, n, next = en.at, 1, first
		case en.at == first:
			n++
		case en.at < next:
			next = en.at
		}
	}
	if first > horizon {
		return horizon, 0, horizon
	}
	return first, n, min(next, horizon)
}

// TestLookaheadMatchesBruteForce drives random queues — ties at the
// current instant, the front register, lazily cancelled entries, RunUntil
// horizons, Run, Stop and calls outside the loop — and checks Lookahead
// against a scan of the whole queue after every event. Against the live
// events alone it must be exact in first and conservative in n and next.
func TestLookaheadMatchesBruteForce(t *testing.T) {
	// corners counts the checks that reached each case the test exists for.
	corners := map[string]int{}
	for trial := int64(1); trial <= 200; trial++ {
		r := rand.New(rand.NewSource(trial))
		s := New(trial)
		var handles []Handle
		horizon := Time(0)
		check := func() {
			if s.hasFront {
				corners["front register"]++
			}
			if s.dead > 0 {
				corners["dead entries"]++
			}
			if s.stopped {
				corners["after Stop"]++
			}
			first, n, next := s.Lookahead()
			wf, wn, wnext := scanQueue(s, horizon)
			if first != wf || n != wn || next != wnext {
				t.Fatalf("trial %d at %v (horizon %v): Lookahead = (%v, %d, %v), scan = (%v, %d, %v)",
					trial, s.Now(), horizon, first, n, next, wf, wn, wnext)
			}
			var live []heapEntry
			for _, h := range handles {
				if h.Pending() {
					live = append(live, heapEntry{at: h.At()})
				}
			}
			lf, ln, lnext := scanTimes(live, horizon)
			if first != lf || n < ln || next > lnext {
				t.Fatalf("trial %d at %v (horizon %v): Lookahead = (%v, %d, %v), live events give (%v, %d, %v)",
					trial, s.Now(), horizon, first, n, next, lf, ln, lnext)
			}
			if n > ln || next < lnext {
				corners["dead entry counted"]++
			}
			if s.Pending() > 0 && n == 0 {
				corners["capped at the horizon"]++
			}
		}
		var fire func()
		schedule := func(at Time) { handles = append(handles, s.At(at, fire)) }
		fire = func() {
			check()
			for range r.Intn(4) {
				if len(handles) < 300 {
					schedule(s.Now() + Time(r.Intn(12)))
				}
			}
			for range r.Intn(3) {
				s.Cancel(handles[r.Intn(len(handles))])
			}
			if r.Intn(40) == 0 {
				s.Stop()
				horizon = s.Now()
			}
			check()
		}
		for range 1 + r.Intn(80) {
			schedule(Time(r.Intn(30)))
		}
		for range r.Intn(len(handles)) { // cancelled before any run: dead heap entries
			s.Cancel(handles[r.Intn(len(handles))])
		}
		schedule(Time(r.Intn(30)))
		for s.Pending() > 0 && s.Now() < 2000 {
			check()
			if r.Intn(4) == 0 {
				horizon = MaxTime
				s.Run()
			} else {
				horizon = s.Now() + Time(r.Intn(40))
				s.RunUntil(horizon)
			}
			horizon = s.Now() // outside the loop
			check()
		}
	}
	for _, c := range []string{"front register", "dead entries", "after Stop", "dead entry counted", "capped at the horizon"} {
		if corners[c] == 0 {
			t.Errorf("no check reached the %s case", c)
		}
	}
}
