package pamas

import (
	"testing"

	"repro/internal/radio"
	"repro/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	for _, m := range []Mode{AlwaysListen, Pamas, PamasBattery} {
		if err := DefaultConfig(m).Validate(); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
	bad := DefaultConfig(Pamas)
	bad.LowBattery = 2
	if err := bad.Validate(); err == nil {
		t.Error("bad threshold accepted")
	}
}

func TestModeString(t *testing.T) {
	if AlwaysListen.String() == "" || Pamas.String() == "" || PamasBattery.String() == "" {
		t.Error("mode names missing")
	}
}

func TestSingleTransfer(t *testing.T) {
	s := sim.New(1)
	n := NewNetwork(s, DefaultConfig(Pamas), 4)
	n.Send(0, 1, 25000) // 0.1 s at 2 Mb/s
	s.RunUntil(sim.Second)
	pkts, bytes := n.Delivered()
	if pkts != 1 || bytes != 25000 {
		t.Fatalf("delivered %d/%d, want 1/25000", pkts, bytes)
	}
	sent, _ := n.Node(0).Stats()
	_, recv := n.Node(1).Stats()
	if sent != 1 || recv != 1 {
		t.Errorf("sent/recv = %d/%d", sent, recv)
	}
}

func TestThirdPartiesSleepInPamasMode(t *testing.T) {
	run := func(mode Mode) float64 {
		s := sim.New(2)
		n := NewNetwork(s, DefaultConfig(mode), 5)
		// Nodes 0->1 exchange steadily; nodes 2-4 are bystanders.
		sim.NewTicker(s, 300*sim.Millisecond, func() { n.Send(0, 1, 50000) })
		s.RunUntil(30 * sim.Second)
		return n.Node(3).dev.Meter().TotalEnergy()
	}
	listen := run(AlwaysListen)
	pamas := run(Pamas)
	if pamas >= listen {
		t.Errorf("bystander energy with PAMAS (%.1f J) should be below always-listen (%.1f J)", pamas, listen)
	}
	// Overhearing avoidance is worth a visible fraction during active
	// periods (~20% of time active here).
	if (listen-pamas)/listen < 0.02 {
		t.Errorf("savings only %.1f%%; expected measurable overhearing avoidance",
			100*(listen-pamas)/listen)
	}
}

func TestBacklogSerializesTransfers(t *testing.T) {
	s := sim.New(3)
	n := NewNetwork(s, DefaultConfig(Pamas), 6)
	// Two simultaneous sends: the second must wait.
	n.Send(0, 1, 250000) // 1 s
	n.Send(2, 3, 250000)
	s.RunUntil(1500 * sim.Millisecond)
	pkts, _ := n.Delivered()
	if pkts != 1 {
		t.Errorf("delivered %d at 1.5s, want 1 (second transfer serialized)", pkts)
	}
	s.RunUntil(3 * sim.Second)
	pkts, _ = n.Delivered()
	if pkts != 2 {
		t.Errorf("delivered %d at 3s, want 2", pkts)
	}
}

func TestBatteryModeExtendsLifetime(t *testing.T) {
	run := func(mode Mode) sim.Time {
		s := sim.New(4)
		cfg := DefaultConfig(mode)
		cfg.BatteryCapacity = 60 // die within the horizon
		n := NewNetwork(s, cfg, 4)
		sim.NewTicker(s, 2*sim.Second, func() {
			src := s.Rand().Intn(4)
			dst := (src + 1 + s.Rand().Intn(3)) % 4
			n.Send(src, dst, 20000)
		})
		s.RunUntil(300 * sim.Second)
		return n.FirstDeath()
	}
	baseline := run(AlwaysListen)
	battery := run(PamasBattery)
	if baseline == sim.MaxTime {
		t.Fatal("baseline nodes never died; shrink capacity")
	}
	if battery <= baseline {
		t.Errorf("first death with battery-aware sleep at %v, baseline %v: lifetime should extend",
			battery, baseline)
	}
}

func TestLowBatteryNodesIdleSleep(t *testing.T) {
	s := sim.New(5)
	cfg := DefaultConfig(PamasBattery)
	cfg.BatteryCapacity = 100
	n := NewNetwork(s, cfg, 3)
	sim.NewTicker(s, sim.Second, func() { n.Send(0, 1, 10000) })
	s.RunUntil(200 * sim.Second)
	total := 0
	for i := 0; i < 3; i++ {
		total += n.Node(i).IdleSleeps()
	}
	if total == 0 {
		t.Error("no idle sleeps despite depleted batteries")
	}
}

func TestDeadNodesStopParticipating(t *testing.T) {
	s := sim.New(6)
	cfg := DefaultConfig(AlwaysListen)
	cfg.BatteryCapacity = 5 // dies in ~6 s of idle at 0.75+0.01 W
	n := NewNetwork(s, cfg, 2)
	s.RunUntil(60 * sim.Second)
	if n.NumAlive() != 0 {
		t.Fatalf("alive = %d, want 0", n.NumAlive())
	}
	if n.Node(0).dev.State() != radio.Off {
		t.Error("dead node radio should be off")
	}
	before, _ := n.Delivered()
	n.Send(0, 1, 1000)
	s.RunUntil(70 * sim.Second)
	after, _ := n.Delivered()
	if after != before {
		t.Error("dead nodes completed a transfer")
	}
}

func TestSendValidation(t *testing.T) {
	s := sim.New(7)
	n := NewNetwork(s, DefaultConfig(Pamas), 2)
	defer func() {
		if recover() == nil {
			t.Error("self-send accepted")
		}
	}()
	n.Send(1, 1, 100)
}

func TestFirstDeathMaxTimeWhenAlive(t *testing.T) {
	s := sim.New(8)
	n := NewNetwork(s, DefaultConfig(Pamas), 2)
	s.RunUntil(sim.Second)
	if n.FirstDeath() != sim.MaxTime {
		t.Error("FirstDeath should be MaxTime while all alive")
	}
}

// IdleSleeps counts battery-driven idle sleep episodes.
func (n *Node) IdleSleeps() int { return n.idleSleeps }

// Stats returns packets sent and received.
func (n *Node) Stats() (sent, recv int) { return n.sent, n.recv }

// Node returns node i.
func (n *Network) Node(i int) *Node { return n.nodes[i] }
