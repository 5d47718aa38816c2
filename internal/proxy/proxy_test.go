package proxy

import (
	"testing"

	"repro/internal/sim"
)

func TestRegistrarLifecycle(t *testing.T) {
	s := sim.New(1)
	r := NewRegistrar(s)
	s.RunUntil(5 * sim.Second)
	reg := r.Register(7, 128e3, 0.8)
	if r.Count() != 1 {
		t.Errorf("count = %d, want 1", r.Count())
	}
	if reg.RegisterAt != 5*sim.Second {
		t.Errorf("registered at %v, want 5s", reg.RegisterAt)
	}
	if got := r.Lookup(7); got == nil || got.QoSRateBps != 128e3 {
		t.Error("lookup failed")
	}
	r.UpdateBattery(7, 0.3)
	if r.Lookup(7).BatteryLevel != 0.3 {
		t.Error("battery update lost")
	}
	r.Deregister(7)
	if r.Lookup(7) != nil || r.Count() != 0 {
		t.Error("deregister failed")
	}
}

func TestRegistrarValidation(t *testing.T) {
	s := sim.New(2)
	r := NewRegistrar(s)
	defer func() {
		if recover() == nil {
			t.Error("invalid registration accepted")
		}
	}()
	r.Register(1, 128e3, 1.5)
}
