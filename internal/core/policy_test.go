package core

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/sim"
)

func newRM(seed int64, cfg Config) (*sim.Simulator, *ResourceManager, map[Iface]*channel.GilbertElliott) {
	s := sim.New(seed)
	chans := map[Iface]*channel.GilbertElliott{}
	for _, i := range Ifaces() {
		ch := channel.NewGilbertElliott(s, GoodChannelParams())
		ch.Freeze()
		chans[i] = ch
	}
	return s, NewResourceManager(s, cfg, chans), chans
}

func TestEpochCostPrefersWLANForMP3(t *testing.T) {
	// The crux of the adaptive policy: one epoch of MP3 (160 KB) costs
	// less marginal energy as a WLAN burst (2% duty at 1.4 W plus wake
	// overhead) than as a Bluetooth burst (23% duty at 0.43 W).
	_, rm, _ := newRM(1, DefaultConfig())
	bytes := 160 * 1024
	wlan := rm.epochCost(WLAN, bytes)
	bt := rm.epochCost(BT, bytes)
	if wlan >= bt {
		t.Errorf("WLAN epoch cost %.3f J should undercut BT %.3f J for MP3 demand", wlan, bt)
	}
	// For a tiny demand the WLAN wake overhead dominates and BT wins —
	// the policy is a real trade-off, not a constant answer.
	smallW := rm.epochCost(WLAN, 2*1024)
	smallB := rm.epochCost(BT, 2*1024)
	if smallB >= smallW {
		t.Errorf("BT small-demand cost %.3f J should undercut WLAN %.3f J (wake overhead)", smallB, smallW)
	}
}

func TestInflationCappedOnDeadChannel(t *testing.T) {
	_, rm, chans := newRM(2, DefaultConfig())
	if inf := rm.inflation(WLAN); inf < 1 || inf > 1.1 {
		t.Errorf("good-channel inflation = %.3f, want ≈ 1", inf)
	}
	chans[WLAN].ForceState(channel.Bad)
	if inf := rm.inflation(WLAN); inf != rm.cfg.InflationCap {
		t.Errorf("bad-channel inflation = %.3f, want cap %.1f", inf, rm.cfg.InflationCap)
	}
}

func TestDemandForToppingUp(t *testing.T) {
	s, rm, _ := newRM(3, DefaultConfig())
	c := rm.Admit(DefaultClientSpec(0))
	d := rm.demandFor(c)
	// Empty buffer: demand = full target (epoch + margin of media).
	want := int(c.Spec().Stream.BytesPerSecond() * (rm.cfg.Epoch.Seconds() + rm.cfg.MarginSeconds))
	if d.Bytes < want-1 || d.Bytes > want+1 {
		t.Errorf("initial demand = %d, want ≈ %d", d.Bytes, want)
	}
	// Not yet playing: maximally urgent (deadline = now).
	if d.Deadline != s.Now() {
		t.Errorf("pre-playback deadline = %v, want now", d.Deadline)
	}
	// After a fill, demand shrinks by the level.
	c.Buffer().Fill(100_000)
	d2 := rm.demandFor(c)
	if d2.Bytes >= d.Bytes {
		t.Error("demand did not shrink after a fill")
	}
	if !c.Buffer().Playing() {
		t.Fatal("buffer should be playing after 100KB")
	}
	if d2.Deadline <= s.Now() {
		t.Error("playing client should have a future deadline")
	}
}

func TestAdmitAfterStartPanics(t *testing.T) {
	_, rm, _ := newRM(4, DefaultConfig())
	rm.Admit(DefaultClientSpec(0))
	rm.Start()
	defer func() {
		if recover() == nil {
			t.Error("late admission accepted")
		}
	}()
	rm.Admit(DefaultClientSpec(1))
}

// The manager keeps its per-client bookkeeping on the Client and pairs
// slots with demands by client ID, so a second client with the same ID is
// rejected at admission.
func TestAdmitDuplicateIDPanics(t *testing.T) {
	_, rm, _ := newRM(4, DefaultConfig())
	rm.Admit(DefaultClientSpec(0))
	defer func() {
		if recover() == nil {
			t.Error("duplicate client ID accepted")
		}
	}()
	rm.Admit(DefaultClientSpec(0))
}

func TestBTOnlyPolicyRequiresBT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyBTOnly
	_, rm, _ := newRM(5, cfg)
	spec := DefaultClientSpec(0)
	spec.HasBT = false
	defer func() {
		if recover() == nil {
			t.Error("BT-only policy accepted a BT-less client")
		}
	}()
	rm.Admit(spec)
}

func TestClientCurrentPowerSumsInterfaces(t *testing.T) {
	_, rm, _ := newRM(6, DefaultConfig())
	c := rm.Admit(DefaultClientSpec(0))
	// Fresh client: WLAN off (0 W) + BT park (0.005 W).
	if p := c.CurrentPower(); p < 0.004 || p > 0.006 {
		t.Errorf("initial combined power = %.4f W, want ≈ 0.005", p)
	}
}

func TestWLANOnlySpecWithoutBT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyWLANOnly
	s, rm, _ := newRM(7, cfg)
	spec := DefaultClientSpec(0)
	spec.HasBT = false
	c := rm.Admit(spec)
	rm.Start()
	s.RunUntil(30 * sim.Second)
	if c.Assigned() != WLAN {
		t.Errorf("assigned %v, want wlan", c.Assigned())
	}
	if c.Buffer().Underruns() != 0 {
		t.Error("single-interface client stalled on a clean channel")
	}
	// No BT device: power floor is WLAN off = 0 between bursts.
	if c.Has(BT) {
		t.Error("client should not have BT")
	}
}
