package exp

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/scenario"
)

// TestHotspotSharedProfilesStayUnchanged runs every Hotspot-family spec and
// then checks that the per-interface radio profiles, which core shares
// read-only across all clients and runs, still equal fresh calibrations: a
// write through one client's profile would otherwise leak into every later
// run in the process.
func TestHotspotSharedProfilesStayUnchanged(t *testing.T) {
	for _, name := range []string{"fig1", "fig2", "e13", "e14", "e15",
		"ablation-iface", "ablation-margin", "ablation-burst"} {
		spec, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("spec %s not registered", name)
		}
		for seed := int64(1); seed <= 2; seed++ {
			spec.Execute(seed)
		}
	}
	clients := core.NewHotspot(1, core.DefaultConfig(), 2).RM().Clients()
	for _, tc := range []struct {
		iface core.Iface
		fresh *radio.Profile
	}{{core.WLAN, radio.WLAN80211b()}, {core.BT, radio.Bluetooth()}} {
		p := clients[0].Device(tc.iface).Profile()
		if p != clients[1].Device(tc.iface).Profile() {
			t.Errorf("%v: clients do not share one profile", tc.iface)
		}
		if !reflect.DeepEqual(p, tc.fresh) {
			t.Errorf("%v: shared profile changed by the runs:\n got %+v\nwant %+v", tc.iface, *p, *tc.fresh)
		}
	}
}
