package transport

import (
	"testing"

	"repro/internal/sim"
)

func TestSnoopRepairsLocally(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, 1e6, sim.Millisecond)
	n := 0
	l.Loss = func(int) bool {
		n++
		return n == 1 // first attempt lost, repair succeeds
	}
	l.Snoop = true
	l.RepairDelay = 2 * sim.Millisecond
	delivered := false
	l.Send(&Packet{Len: 1000}, func(*Packet) { delivered = true })
	s.Run()
	if !delivered {
		t.Fatal("snoop did not repair the loss")
	}
	if l.Repairs != 1 {
		t.Errorf("repairs = %d, want 1", l.Repairs)
	}
	if l.Offered != 1 || l.Delivered != 1 || l.Lost != 0 || l.InFlight != 0 {
		t.Errorf("offered %d, delivered %d, lost %d, in flight %d; want 1, 1, 0, 0: a repaired packet is not lost",
			l.Offered, l.Delivered, l.Lost, l.InFlight)
	}
}

func TestSnoopGivesUpAtLimit(t *testing.T) {
	s := sim.New(2)
	l := NewLink(s, 1e6, sim.Millisecond)
	l.Loss = func(int) bool { return true } // hopeless
	l.Snoop = true
	l.RepairLimit = 3
	delivered := false
	l.Send(&Packet{Len: 1000}, func(*Packet) { delivered = true })
	s.Run()
	if delivered {
		t.Error("delivered through a dead link")
	}
	if l.Repairs != 3 {
		t.Errorf("repairs = %d, want limit 3", l.Repairs)
	}
	if l.Offered != 1 || l.Delivered != 0 || l.Lost != 1 || l.InFlight != 0 {
		t.Errorf("offered %d, delivered %d, lost %d, in flight %d; want 1, 0, 1, 0",
			l.Offered, l.Delivered, l.Lost, l.InFlight)
	}
}

func TestSnoopBeatsEndToEndUnderLoss(t *testing.T) {
	const bytes = 2_000_000
	run := func(kind string) TransferResult {
		s := sim.New(7)
		ch := lossyChannel(s, 2e-6)
		cfg := DefaultPathConfig(ch)
		switch kind {
		case "snoop":
			return SnoopTransfer(s, cfg, bytes)
		case "split":
			return SplitTransfer(s, cfg, bytes)
		default:
			return EndToEndTransfer(s, cfg, bytes)
		}
	}
	e2e := run("e2e")
	snoop := run("snoop")
	if snoop.GoodputBps <= e2e.GoodputBps {
		t.Errorf("snoop goodput %.0f should beat end-to-end %.0f under loss",
			snoop.GoodputBps, e2e.GoodputBps)
	}
	// Snoop hides losses from the sender: far fewer end-to-end timeouts.
	if snoop.Timeouts > e2e.Timeouts {
		t.Errorf("snoop timeouts %d should not exceed end-to-end %d",
			snoop.Timeouts, e2e.Timeouts)
	}
}

func TestSnoopNeutralOnCleanPath(t *testing.T) {
	const bytes = 1_000_000
	s1 := sim.New(8)
	e2e := EndToEndTransfer(s1, DefaultPathConfig(cleanChannel(s1)), bytes)
	s2 := sim.New(8)
	snoop := SnoopTransfer(s2, DefaultPathConfig(cleanChannel(s2)), bytes)
	ratio := snoop.Duration.Seconds() / e2e.Duration.Seconds()
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("snoop should be a no-op on a clean path: ratio %.3f", ratio)
	}
}
