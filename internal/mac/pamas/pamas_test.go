package pamas

import (
	"math"
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

// TestConfigRejectsZeroCapacity checks that an empty battery is refused
// before any network, and so any battery, exists.
func TestConfigRejectsZeroCapacity(t *testing.T) {
	empty := DefaultConfig(Pamas)
	empty.BatteryCapacity = 0
	if err := empty.Validate(); err == nil {
		t.Error("zero battery capacity accepted")
	}
}

// TestConfigRejectsNonFinite covers NaN and infinite values, which plain
// `x <= 0` checks let through: a NaN capacity would keep every node alive
// forever with a NaN level.
func TestConfigRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		set  func(c *Config)
	}{
		{"capacity NaN", func(c *Config) { c.BatteryCapacity = nan }},
		{"capacity +Inf", func(c *Config) { c.BatteryCapacity = inf }},
		{"capacity -Inf", func(c *Config) { c.BatteryCapacity = -inf }},
		{"bit rate NaN", func(c *Config) { c.BitRate = nan }},
		{"bit rate +Inf", func(c *Config) { c.BitRate = inf }},
		{"low battery NaN", func(c *Config) { c.LowBattery = nan }},
		{"low battery +Inf", func(c *Config) { c.LowBattery = inf }},
		{"low battery -Inf", func(c *Config) { c.LowBattery = -inf }},
	}
	for _, c := range cases {
		cfg := DefaultConfig(PamasBattery)
		c.set(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
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
	// The sender transmitted and the receiver received for the whole 0.1 s
	// frame, and neither did the other's part.
	air := 100 * sim.Millisecond
	src, dst := n.Node(0).dev.Meter(), n.Node(1).dev.Meter()
	if src.StateTime(radio.TX) != air || src.StateTime(radio.RX) != 0 {
		t.Errorf("sender TX/RX time %v/%v, want %v/0", src.StateTime(radio.TX), src.StateTime(radio.RX), air)
	}
	if dst.StateTime(radio.RX) != air || dst.StateTime(radio.TX) != 0 {
		t.Errorf("receiver RX/TX time %v/%v, want %v/0", dst.StateTime(radio.RX), dst.StateTime(radio.TX), air)
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
		randomFlows(s, n, 4)
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
	// Both modes sleep bystanders through others' transmissions; only
	// PamasBattery adds idle sleeps once a battery runs low, so on the same
	// seed its nodes spend longer asleep.
	sleep := func(mode Mode) sim.Time {
		s := sim.New(5)
		cfg := DefaultConfig(mode)
		cfg.BatteryCapacity = 100
		n := NewNetwork(s, cfg, 3)
		sim.NewTicker(s, sim.Second, func() { n.Send(0, 1, 10000) })
		s.RunUntil(200 * sim.Second)
		var total sim.Time
		for i := 0; i < 3; i++ {
			total += n.Node(i).dev.Meter().StateTime(radio.Sleep)
		}
		return total
	}
	pamas, battery := sleep(Pamas), sleep(PamasBattery)
	if battery <= pamas {
		t.Errorf("nodes slept %v with battery-driven idle sleep, %v without: depleted batteries should sleep longer",
			battery, pamas)
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

// Node returns node i.
func (n *Network) Node(i int) *Node { return n.nodes[i] }

// watchCharges runs fn at every charge instant. Its ticker is created after
// the network's, so at each instant it runs after every node's charge.
func watchCharges(s *sim.Simulator, fn func()) { sim.NewTicker(s, chargePeriod, fn) }

// randomFlows sends a 20 KB transfer between two random nodes every 2 s.
func randomFlows(s *sim.Simulator, n *Network, nodes int) {
	sim.NewTicker(s, 2*sim.Second, func() {
		src := s.Rand().Intn(nodes)
		dst := (src + 1 + s.Rand().Intn(nodes-1)) % nodes
		n.Send(src, dst, 20000)
	})
}

// TestBatteryChargesMeteredEnergy recomputes every node's battery from its
// radio meter: each charge drains exactly the radio energy plus the
// control draw since the previous charge, bit for bit, until the charge
// that empties the battery; after it the node is never charged again.
func TestBatteryChargesMeteredEnergy(t *testing.T) {
	const nodes = 4
	s := sim.New(4)
	cfg := DefaultConfig(PamasBattery)
	cfg.BatteryCapacity = 60 // die within the horizon
	n := NewNetwork(s, cfg, nodes)
	randomFlows(s, n, nodes)

	type battery struct {
		sampled, drained float64
		dead             bool
	}
	want := make([]battery, nodes)
	deaths := 0
	watchCharges(s, func() {
		for i := range want {
			b, node := &want[i], n.Node(i)
			if !b.dead {
				cur := node.dev.Meter().TotalEnergy() + float64(controlPower*s.Now().Seconds())
				if delta := cur - b.sampled; delta > 0 {
					b.drained += delta
				}
				b.sampled = cur
				if b.drained >= cfg.BatteryCapacity {
					b.drained, b.dead = cfg.BatteryCapacity, true
					deaths++
				}
			}
			if node.sampled != b.sampled || node.drained != b.drained || node.alive == b.dead {
				t.Fatalf("node %d at %v: sampled %v J, drained %v J, alive %v; want %v J, %v J, alive %v",
					i, s.Now(), node.sampled, node.drained, node.alive, b.sampled, b.drained, !b.dead)
			}
		}
	})
	s.RunUntil(300 * sim.Second)
	if deaths == 0 {
		t.Fatal("no node died; shrink the capacity so the death path is covered")
	}
}

// TestIdleNodeDrainsProfilePower runs two idle nodes with no traffic for
// 10 s: each battery drains the profile's idle power plus the control
// draw over that time, and its level is the remaining fraction.
func TestIdleNodeDrainsProfilePower(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig(AlwaysListen)
	n := NewNetwork(s, cfg, 2)
	if lv := n.level(n.Node(0)); lv != 1 {
		t.Fatalf("fresh battery level %v, want 1", lv)
	}
	s.RunUntil(10 * sim.Second)
	want := 10 * (adHocProfile(cfg.BitRate).Power[radio.Idle] + controlPower)
	for i := 0; i < 2; i++ {
		node := n.Node(i)
		if math.Abs(node.drained-want) > 1e-9 || !node.alive {
			t.Errorf("node %d: drained %v J, alive %v; want %v J, alive", i, node.drained, node.alive, want)
		}
		if lv, wantLv := n.level(node), 1-want/cfg.BatteryCapacity; math.Abs(lv-wantLv) > 1e-12 {
			t.Errorf("node %d: level %v, want %v", i, lv, wantLv)
		}
	}
}

// batterySample is one node's battery as seen at one charge instant.
type batterySample struct {
	at               sim.Time
	alive            bool
	drained, sampled float64
	radio            radio.State
	firstDeath       sim.Time
}

// drainToDeath runs two idle AlwaysListen nodes on a 5 J battery (about
// 6.6 s at 0.75+0.01 W) for 60 s and records each node's battery at every
// charge instant.
func drainToDeath() (Config, *Network, [2][]batterySample) {
	s := sim.New(6)
	cfg := DefaultConfig(AlwaysListen)
	cfg.BatteryCapacity = 5
	n := NewNetwork(s, cfg, 2)
	var log [2][]batterySample
	watchCharges(s, func() {
		for i := range log {
			node := n.Node(i)
			log[i] = append(log[i], batterySample{s.Now(), node.alive, node.drained, node.sampled, node.dev.State(), n.FirstDeath()})
		}
	})
	s.RunUntil(60 * sim.Second)
	return cfg, n, log
}

// deathIndex returns the index of the first sample where the node is dead,
// or -1.
func deathIndex(samples []batterySample) int {
	for k, b := range samples {
		if !b.alive {
			return k
		}
	}
	return -1
}

// TestBatteryAliveBelowCapacity checks that a node is alive at every
// charge before its battery is empty, and that it drains while alive.
func TestBatteryAliveBelowCapacity(t *testing.T) {
	cfg, _, log := drainToDeath()
	for i, samples := range log {
		if !samples[0].alive {
			t.Fatalf("node %d dead at the first charge", i)
		}
		for _, b := range samples {
			if b.alive && (b.drained >= cfg.BatteryCapacity || b.drained <= 0) {
				t.Fatalf("node %d alive at %v with %v of %v J drained", i, b.at, b.drained, cfg.BatteryCapacity)
			}
		}
	}
}

// TestBatteryDiesOnce checks a node's death: it comes at the first charge
// that drains the whole capacity, sets FirstDeath to that instant, turns
// the radio Off and keeps the drain at the capacity.
func TestBatteryDiesOnce(t *testing.T) {
	cfg, n, log := drainToDeath()
	var diedAt [2]sim.Time
	for i, samples := range log {
		k := deathIndex(samples)
		if k < 0 {
			t.Fatalf("node %d never died", i)
		}
		b := samples[k]
		diedAt[i] = b.at
		if b.firstDeath > b.at {
			t.Errorf("node %d died at %v but FirstDeath is %v", i, b.at, b.firstDeath)
		}
		if b.radio != radio.Off {
			t.Errorf("node %d died with its radio %v, want off", i, b.radio)
		}
		if b.drained != cfg.BatteryCapacity {
			t.Errorf("node %d died with %v J drained, want the capacity %v J", i, b.drained, cfg.BatteryCapacity)
		}
	}
	if first := min(diedAt[0], diedAt[1]); n.FirstDeath() != first {
		t.Errorf("FirstDeath = %v, want the first death at %v", n.FirstDeath(), first)
	}
}

// TestChargerStopsAtDeath checks that a node dies at the first charge
// after its idle draw reaches the capacity, and that no later charge
// touches its battery.
func TestChargerStopsAtDeath(t *testing.T) {
	cfg, _, log := drainToDeath()
	draw := adHocProfile(cfg.BitRate).Power[radio.Idle] + controlPower
	empty := sim.FromSeconds(cfg.BatteryCapacity / draw)
	for i, samples := range log {
		k := deathIndex(samples)
		if k < 0 {
			t.Fatalf("node %d never died", i)
		}
		dead := samples[k]
		if dead.at < empty || dead.at >= empty+chargePeriod {
			t.Errorf("node %d died at %v, want the first charge at or after %v", i, dead.at, empty)
		}
		for _, b := range samples[k+1:] {
			if b.alive || b.drained != dead.drained || b.sampled != dead.sampled {
				t.Fatalf("node %d charged at %v after dying at %v: alive %v, drained %v J, sampled %v J (was %v J)",
					i, b.at, dead.at, b.alive, b.drained, b.sampled, dead.sampled)
			}
		}
		if len(samples) == k+1 {
			t.Fatalf("node %d died at the last charge instant; lengthen the run", i)
		}
	}
}

// TestBatteryLevelNeverIncreases samples every node's battery level at
// every charge instant over several seeds: it stays in [0, 1] and never
// rises.
func TestBatteryLevelNeverIncreases(t *testing.T) {
	const nodes = 4
	for seed := int64(1); seed <= 4; seed++ {
		s := sim.New(seed)
		cfg := DefaultConfig(PamasBattery)
		cfg.BatteryCapacity = 60
		n := NewNetwork(s, cfg, nodes)
		randomFlows(s, n, nodes)
		prev := []float64{1, 1, 1, 1}
		watchCharges(s, func() {
			for i := range prev {
				lv := n.level(n.Node(i))
				if lv > prev[i] || lv < 0 {
					t.Fatalf("seed %d node %d at %v: level %v after %v", seed, i, s.Now(), lv, prev[i])
				}
				prev[i] = lv
			}
		})
		s.RunUntil(300 * sim.Second)
	}
}
