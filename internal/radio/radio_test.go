package radio

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestProfilesValidate(t *testing.T) {
	for _, p := range []*Profile{WLAN80211b(), Bluetooth()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfileValidateCatchesErrors(t *testing.T) {
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.BitRate = 0 },
		func(p *Profile) { p.Goodput = p.BitRate * 2 },
		func(p *Profile) { p.Power[RX] = -1 },
		func(p *Profile) { p.Power[Off] = 0.5 },
		func(p *Profile) { p.Power[Sleep] = p.Power[Idle] + 1 },
		func(p *Profile) {
			p.Transitions[Off][Idle] = Transition{Latency: -1}
		},
		func(p *Profile) { p.BitRate = math.NaN() },
		func(p *Profile) { p.BitRate = math.Inf(1) },
		func(p *Profile) { p.Goodput = math.NaN() },
		func(p *Profile) { p.Power[Sleep] = math.NaN() },
		func(p *Profile) { p.Power[TX] = math.Inf(1) },
		func(p *Profile) { p.Transitions[Sleep][Idle].Energy = math.NaN() },
		func(p *Profile) { p.Transitions[Sleep][Idle].Energy = math.Inf(1) },
	}
	for i, mutate := range cases {
		p := WLAN80211b()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: corrupted profile validated", i)
		}
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{Off: "off", Sleep: "sleep", Idle: "idle", RX: "rx", TX: "tx"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state should still render")
	}
}

func TestTxTime(t *testing.T) {
	p := WLAN80211b()
	// 11 Mb/s: 1375 bytes = 11000 bits = 1 ms
	if got := p.TxTime(1375); got != sim.Millisecond {
		t.Errorf("TxTime(1375) = %v, want 1ms", got)
	}
}

func TestBurstTime(t *testing.T) {
	p := WLAN80211b()
	got := p.BurstTime(0)
	if got != p.PerBurstOverhead {
		t.Errorf("BurstTime(0) = %v, want overhead %v", got, p.PerBurstOverhead)
	}
	bytes := 160 * 1024
	want := p.PerBurstOverhead + sim.FromSeconds(float64(bytes*8)/p.Goodput)
	if got := p.BurstTime(bytes); got != want {
		t.Errorf("BurstTime = %v, want %v", got, want)
	}
}

func TestDeviceInitialState(t *testing.T) {
	s := sim.New(1)
	d := newDevice(s, WLAN80211b())
	if d.State() != Off {
		t.Errorf("initial state = %v, want off", d.State())
	}
	if d.Meter().TotalEnergy() != 0 {
		t.Error("fresh device consumed energy")
	}
}

func TestFreeTransitionIsImmediate(t *testing.T) {
	s := sim.New(1)
	p := WLAN80211b()
	d := newDevice(s, p)
	done := false
	lat := d.SetState(Idle, func() { done = true })
	// Off->Idle has latency per profile, so pick one without cost:
	_ = lat
	s.Run()
	if !done {
		t.Error("done callback never ran")
	}
}

func TestTransitionLatencyHonored(t *testing.T) {
	s := sim.New(1)
	p := WLAN80211b()
	d := newDevice(s, p)
	var doneAt sim.Time = -1
	lat := d.SetState(Idle, func() { doneAt = s.Now() })
	if lat != p.TransitionCost(Off, Idle).Latency {
		t.Errorf("returned latency %v, want %v", lat, p.TransitionCost(Off, Idle).Latency)
	}
	if !d.Transitioning() {
		t.Error("device should be transitioning")
	}
	s.Run()
	if doneAt != 100*sim.Millisecond {
		t.Errorf("transition completed at %v, want 100ms", doneAt)
	}
	if d.Transitioning() {
		t.Error("device still transitioning after completion")
	}
}

func TestSetStateDuringTransitionPanics(t *testing.T) {
	s := sim.New(1)
	d := newDevice(s, WLAN80211b())
	d.SetState(Idle, nil) // starts 100ms transition
	defer func() {
		if recover() == nil {
			t.Error("SetState during transition did not panic")
		}
	}()
	d.SetState(Off, nil)
}

func TestSetStateSameStateNoop(t *testing.T) {
	s := sim.New(1)
	d := newDevice(s, WLAN80211b())
	called := false
	if lat := d.SetState(Off, func() { called = true }); lat != 0 {
		t.Errorf("same-state latency = %v, want 0", lat)
	}
	if !called {
		t.Error("done callback skipped for no-op transition")
	}
}

func TestEnergyAccounting(t *testing.T) {
	s := sim.New(1)
	p := WLAN80211b()
	d := newDevice(s, p)
	d.SetState(Idle, nil)
	s.Run() // completes transition at 100ms; idle power charged over that window
	s.RunUntil(1100 * sim.Millisecond)
	m := d.Meter()
	// 1.1s in idle state (including transition window at target-state power)
	// plus off->idle transition energy 0.135 J.
	wantIdle := p.Power[Idle] * 1.1
	if !almostEq(m.StateEnergy(Idle), wantIdle, 1e-9) {
		t.Errorf("idle energy = %v, want %v", m.StateEnergy(Idle), wantIdle)
	}
	wantTotal := wantIdle + 0.135
	if !almostEq(m.TotalEnergy(), wantTotal, 1e-9) {
		t.Errorf("total energy = %v, want %v", m.TotalEnergy(), wantTotal)
	}
	if !almostEq(m.AveragePower(), wantTotal/1.1, 1e-9) {
		t.Errorf("avg power = %v, want %v", m.AveragePower(), wantTotal/1.1)
	}
}

func TestTransmitOccupiesTxThenRestores(t *testing.T) {
	s := sim.New(1)
	p := WLAN80211b()
	d := newDevice(s, p)
	d.SetState(Idle, nil)
	s.Run()
	start := s.Now()
	var doneAt sim.Time = -1
	d.OccupyFor(TX, p.TxTime(1375), Idle, func() { doneAt = s.Now() })
	if d.State() != TX {
		t.Errorf("state during transmit = %v, want tx", d.State())
	}
	s.Run()
	if doneAt != start+sim.Millisecond {
		t.Errorf("done at %v, want %v", doneAt, start+sim.Millisecond)
	}
	if d.State() != Idle {
		t.Errorf("state after transmit = %v, want idle", d.State())
	}
	if !almostEq(d.Meter().StateEnergy(TX), p.Power[TX]*0.001, 1e-12) {
		t.Errorf("tx energy = %v", d.Meter().StateEnergy(TX))
	}
}

func TestReceiveOccupiesRx(t *testing.T) {
	s := sim.New(1)
	d := newDevice(s, WLAN80211b())
	d.SetState(Idle, nil)
	s.Run()
	d.OccupyFor(RX, d.Profile().TxTime(2750), Idle, nil)
	if d.State() != RX {
		t.Errorf("state = %v, want rx", d.State())
	}
	s.Run()
	if got := d.Meter().StateTime(RX); got != 2*sim.Millisecond {
		t.Errorf("rx time = %v, want 2ms", got)
	}
}

func TestOccupyFromSleepPanics(t *testing.T) {
	s := sim.New(1)
	d := newDevice(s, WLAN80211b())
	defer func() {
		if recover() == nil {
			t.Error("OccupyFor from off did not panic")
		}
	}()
	d.OccupyFor(TX, sim.Millisecond, Idle, nil)
}

func TestStateChangeListeners(t *testing.T) {
	s := sim.New(1)
	d := newDevice(s, WLAN80211b())
	var states []State
	d.OnStateChange(func(_ sim.Time, st State) { states = append(states, st) })
	d.SetState(Idle, nil)
	s.Run()
	d.OccupyFor(RX, sim.Millisecond, Idle, nil)
	s.Run()
	want := []State{Idle, RX, Idle}
	if len(states) != len(want) {
		t.Fatalf("listener saw %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Errorf("listener[%d] = %v, want %v", i, states[i], want[i])
		}
	}
}

func TestMeterStateFractionAndReset(t *testing.T) {
	s := sim.New(1)
	d := newDevice(s, WLAN80211b())
	s.RunUntil(1 * sim.Second) // 1s in Off
	d.SetState(Idle, nil)
	s.Run()
	s.RunUntil(2 * sim.Second) // 1s in Idle (incl. transition)
	m := d.Meter()
	if f := m.StateFraction(Off); !almostEq(f, 0.5, 1e-9) {
		t.Errorf("off fraction = %v, want 0.5", f)
	}
	m.Reset()
	if m.TotalEnergy() != 0 {
		t.Error("energy nonzero after reset")
	}
	s.RunUntil(3 * sim.Second)
	if f := m.StateFraction(Idle); !almostEq(f, 1.0, 1e-9) {
		t.Errorf("idle fraction after reset = %v, want 1", f)
	}
}

func TestSleepPowerOrdering(t *testing.T) {
	// The entire premise of scheduled delivery: deep states draw orders of
	// magnitude less than listening.
	for _, p := range []*Profile{WLAN80211b(), Bluetooth()} {
		if p.Power[Sleep] >= p.Power[Idle]/10 {
			t.Errorf("%s: sleep %.3f not ≪ idle %.3f", p.Name, p.Power[Sleep], p.Power[Idle])
		}
		if p.Power[Idle] > p.Power[RX] {
			t.Errorf("%s: idle draws more than RX", p.Name)
		}
	}
}

func TestWLANIdleNearRX(t *testing.T) {
	// Paper: "Power consumption of WLAN hardware is similar in transmit and
	// receive modes" and idle listening is nearly as expensive as RX.
	p := WLAN80211b()
	if p.Power[Idle]/p.Power[RX] < 0.9 {
		t.Errorf("WLAN idle/rx ratio %.2f should be ≥0.9 to match hardware", p.Power[Idle]/p.Power[RX])
	}
}

func TestTransitionLatencyQuery(t *testing.T) {
	s := sim.New(1)
	p := WLAN80211b()
	d := newDevice(s, p)
	if got := d.TransitionLatency(Idle); got != 100*sim.Millisecond {
		t.Errorf("TransitionLatency(Idle) = %v, want 100ms", got)
	}
	if d.State() != Off {
		t.Error("TransitionLatency must not change state")
	}
}

// A transition may start at exactly the previous one's transEnd, before that
// end event has fired (Transitioning() is already false there). Each
// transition's done must still run at its own end, in start order.
func TestBackToBackTransitionsKeepDoneOrder(t *testing.T) {
	s := sim.New(1)
	p := WLAN80211b()
	d := NewDeviceInState(s, p, Sleep)
	wake := p.TransitionCost(Sleep, Idle).Latency
	doze := p.TransitionCost(Idle, Sleep).Latency
	if wake == 0 || doze == 0 {
		t.Fatal("profile must give both transitions nonzero latency")
	}
	type call struct {
		id int
		at sim.Time
	}
	var got []call
	// Scheduled before the first SetState, so it fires ahead of that
	// transition's end event at the same instant.
	s.At(wake, func() {
		d.SetState(Sleep, func() { got = append(got, call{2, s.Now()}) })
	})
	d.SetState(Idle, func() { got = append(got, call{1, s.Now()}) })
	s.Run()
	want := []call{{1, wake}, {2, wake + doze}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("done calls = %v, want %v", got, want)
	}
	if d.State() != Sleep || d.Transitioning() {
		t.Errorf("final state %v (transitioning %v), want settled Sleep", d.State(), d.Transitioning())
	}
}

// TestOccupyForSteadyStateAllocatesNothing pins the pooled occupancy
// records: once a device has ended one occupancy, the next reuses its
// record, so a steady stream of OccupyFor calls allocates nothing.
func TestOccupyForSteadyStateAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	d := NewDeviceInState(s, WLAN80211b(), Idle)
	ends := 0
	done := func() { ends++ }
	occupy := func() {
		d.OccupyFor(RX, sim.Millisecond, Idle, done)
		s.Run()
	}
	occupy() // warm the record pool and the kernel's event pool
	if allocs := testing.AllocsPerRun(100, occupy); allocs != 0 {
		t.Errorf("OccupyFor allocates %v per call in steady state, want 0", allocs)
	}
	if ends != 102 || d.State() != Idle {
		t.Errorf("ends = %d, state %v; want 102 ends back in idle", ends, d.State())
	}
}

// newDevice creates a WNIC in the Off state.
func newDevice(s *sim.Simulator, p *Profile) *Device {
	return NewDeviceInState(s, p, Off)
}
