package sim

import (
	"math/rand"
	"testing"
)

// scanQueue is a scan of every queued entry, the front register and
// cancelled heap entries included, capped at horizon; with live set, it
// skips the cancelled entries.
func scanQueue(s *Simulator, horizon Time, live bool) (first Time, n int, next Time) {
	var entries []heapEntry
	for _, en := range s.queue {
		if !live || s.slab[en.idx].state() == statePending {
			entries = append(entries, en)
		}
	}
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
// after every event against a scan of the queue's live entries and against
// the live events' own handles. It must be exact against both.
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
			wf, wn, wnext := scanQueue(s, horizon, true)
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
			if first != lf || n != ln || next != lnext {
				t.Fatalf("trial %d at %v (horizon %v): Lookahead = (%v, %d, %v), live events give (%v, %d, %v)",
					trial, s.Now(), horizon, first, n, next, lf, ln, lnext)
			}
			if _, an, anext := scanQueue(s, horizon, false); an != n || anext != next {
				corners["dead entry skipped"]++
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
	for _, c := range []string{"front register", "dead entries", "after Stop", "dead entry skipped", "capped at the horizon"} {
		if corners[c] == 0 {
			t.Errorf("no check reached the %s case", c)
		}
	}
}

// TestLookaheadSkipsDeadEntries pins the heap shapes where a cancelled
// entry hides below a live top: at first itself, and between first and
// the earliest later live entry, directly or with live entries under it.
// An event at 1 holds the front register, so every other entry sits in
// the heap, and Lookahead is read from inside that event.
func TestLookaheadSkipsDeadEntries(t *testing.T) {
	for _, tc := range []struct {
		name   string
		at     []Time // no push sifts up, so at[i] sits in heap slot i
		cancel []int  // indexes into at
		n      int
		next   Time
	}{
		{"dead entry at first under a live top", []Time{10, 10, 20}, []int{1}, 1, 20},
		{"dead leaf between first and next", []Time{10, 15, 20}, []int{1}, 1, 20},
		{"live entry under a dead one", []Time{10, 15, 20, 17}, []int{1}, 1, 17},
		{"dead chain down to a leaf", []Time{10, 15, 20, 17}, []int{1, 3}, 1, 20},
		{"dead entries at first and after", []Time{10, 10, 10, 15, 16}, []int{1, 3}, 2, 16},
	} {
		s := New(1)
		var first, next Time
		var n int
		s.At(1, func() { first, n, next = s.Lookahead() })
		var hs []Handle
		for _, at := range tc.at {
			hs = append(hs, s.At(at, func() {}))
		}
		for _, i := range tc.cancel {
			s.Cancel(hs[i])
		}
		s.Run()
		if first != 10 || n != tc.n || next != tc.next {
			t.Errorf("%s: Lookahead = (%v, %d, %v), want (10us, %d, %v)", tc.name, first, n, next, tc.n, tc.next)
		}
	}
}
