package exp

import (
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// defaultHotspotRun is hotspotsim's flag defaults.
var defaultHotspotRun = HotspotRun{Clients: 3, Scheduler: "edf", Policy: "adaptive",
	Epoch: 10, Duration: 120, OutageLen: 40}

// wantErr checks err against a wanted substring; empty means accepted.
func wantErr(t *testing.T, what string, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Errorf("%s rejected: %v", what, err)
	case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
		t.Errorf("%s: error %v, want one containing %q", what, err, want)
	}
}

// TestCheckSeconds pins the time checks behind both configs' Validate.
func TestCheckSeconds(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	for _, c := range []struct {
		v         float64
		allowZero bool
		want      string // substring of the error; empty means accepted
	}{
		{120, false, ""},
		{1e-6, false, ""},
		{5, true, ""},
		{0, true, ""},
		{0, false, "t must be in [1e-06, 4.612e+12) seconds (got 0)"},
		{negZero, false, "t must be in [1e-06, 4.612e+12) seconds (got -0)"},
		{negZero, true, "t must be 0 or in [1e-06, 4.612e+12) seconds (got -0)"},
		{-5, false, "(got -5)"},
		{-1, true, "(got -1)"},
		{nan, false, "(got NaN)"},
		{nan, true, "(got NaN)"},
		{inf, false, "(got +Inf)"},
		{-inf, false, "(got -Inf)"},
		{4e-7, false, "(got 4e-07)"}, // rounds to no simulated time
		{1e13, false, "(got 1e+13)"},
	} {
		wantErr(t, fmt.Sprint(c.v, c.allowZero), checkSeconds("t", c.v, c.allowZero), c.want)
	}
}

// TestMACLoadValidate pins macbench's usage errors: fewer than one station
// used to print a table of NaN (-stations 0) or panic in a pool goroutine
// (-stations -1), and a rate whose delivery period rounds to zero or
// overflows the clock panicked in the ticker.
func TestMACLoadValidate(t *testing.T) {
	for _, c := range []struct {
		load MACLoad
		want string // substring of the error; empty means accepted
	}{
		{MACLoad{4, 16, 30}, ""},
		{MACLoad{1, 16, 30}, ""},
		{MACLoad{maxStations, 16, 30}, ""},
		{MACLoad{0, 16, 30}, "stations must be in [1, 2007] (got 0)"},
		{MACLoad{-1, 16, 30}, "stations must be in [1, 2007] (got -1)"},
		{MACLoad{maxStations + 1, 16, 30}, "stations must be in [1, 2007] (got 2008)"},
		{MACLoad{4, 0, 30}, "rate must put 1e-06 to 4.612e+12 seconds between deliveries (got 0 KB/s)"},
		{MACLoad{4, -16, 30}, "(got -16 KB/s)"},
		{MACLoad{4, math.NaN(), 30}, "(got NaN KB/s)"},
		{MACLoad{4, 1e300, 30}, "(got 1e+300 KB/s)"},
		{MACLoad{4, 1e-300, 30}, "(got 1e-300 KB/s)"},
		{MACLoad{4, 16, math.NaN()}, "duration must be in"},
		{MACLoad{4, 16, 0}, "duration must be in"},
	} {
		wantErr(t, c.load.Params(), c.load.Validate(), c.want)
	}
}

// TestHotspotRunValidate pins hotspotsim's usage errors, including the
// values that used to reach the simulation: no clients, and an epoch the
// resource manager rejects with a panic.
func TestHotspotRunValidate(t *testing.T) {
	for _, c := range []struct {
		mutate func(*HotspotRun)
		want   string
	}{
		{func(*HotspotRun) {}, ""},
		{func(r *HotspotRun) { r.Scheduler, r.Policy = "wfq", "bt" }, ""},
		{func(r *HotspotRun) { r.OutageAt = 20 }, ""},
		{func(r *HotspotRun) { r.Clients = 0 }, "clients must be in [1, 2007] (got 0)"},
		{func(r *HotspotRun) { r.Scheduler = "fifo" }, `unknown scheduler "fifo"`},
		{func(r *HotspotRun) { r.Policy = "" }, `unknown policy ""`},
		{func(r *HotspotRun) { r.Epoch = 0.1 }, "core: start offset must be below epoch"},
		{func(r *HotspotRun) { r.OutageAt = -1 }, "outage must be 0 or in"},
		{func(r *HotspotRun) { r.OutageLen = math.Inf(1) }, "outage-len must be in"},
		{func(r *HotspotRun) { r.Epoch, r.Duration = 0, math.NaN() }, "epoch must be in [1e-06, 4.612e+12) seconds (got 0)\nduration must be in"},
	} {
		r := defaultHotspotRun
		c.mutate(&r)
		wantErr(t, r.Params(), r.Validate(), c.want)
	}
}

// TestParamsAreCanonical pins the encodings, which are the specs' Params
// and so their result-cache keys, and the parsers' one-spelling rule.
func TestParamsAreCanonical(t *testing.T) {
	if got, want := (MACLoad{4, 16, 30}).Params(), "stations=4 rate=16 duration=30"; got != want {
		t.Errorf("MACLoad params %q, want %q", got, want)
	}
	if got, want := defaultHotspotRun.Params(),
		"clients=3 scheduler=edf policy=adaptive epoch=10 duration=120 outage=0 outage-len=40"; got != want {
		t.Errorf("HotspotRun params %q, want %q", got, want)
	}
	for _, load := range []MACLoad{{4, 16, 30}, {16, 50, 30}, {2007, 0.1, 1e-6}, {3, 1.0 / 3, 12.5}} {
		if got, err := ParseMACLoad(load.Params()); err != nil || got != load {
			t.Errorf("ParseMACLoad(%q) = %+v, %v; want %+v", load.Params(), got, err, load)
		}
	}
	for _, run := range []HotspotRun{defaultHotspotRun, e15Run,
		{Clients: 5, Scheduler: "rr", Policy: "wlan", Epoch: 2.5, Duration: 1e6, OutageAt: 0.25, OutageLen: 1e-6}} {
		if got, err := ParseHotspotRun(run.Params()); err != nil || got != run {
			t.Errorf("ParseHotspotRun(%q) = %+v, %v; want %+v", run.Params(), got, err, run)
		}
	}
	for _, bad := range []struct{ params, want string }{
		{"stations=04 rate=16 duration=30", "not canonical"},
		{"stations=+4 rate=16 duration=30", "not canonical"},
		{"stations=4 rate=16.0 duration=30", "not canonical"},
		{"stations=4 rate=1.6e1 duration=30", "not canonical"},
		{"stations=4  rate=16 duration=30", "not canonical"},
		{"stations=4 rate=16 duration=30 ", "not canonical"},
		{"stations=4 rate=16 duration=30 extra=1", "not canonical"},
		{"rate=16 stations=4 duration=30", "do not match"},
		{"stations=4 rate=16", "do not match"},
		{"", "do not match"},
		{"stations=0 rate=16 duration=30", "stations must be in"},
		{"stations=4 rate=NaN duration=30", "(got NaN KB/s)"},
	} {
		_, err := ParseMACLoad(bad.params)
		wantErr(t, bad.params, err, bad.want)
	}
	for _, bad := range []struct{ params, want string }{
		{"clients=3 scheduler=edf policy=adaptive epoch=10.0 duration=120 outage=0 outage-len=40", "not canonical"},
		{"clients=3 scheduler=edf policy=adaptive epoch=10 duration=120 outage=-0 outage-len=40", "outage must be 0 or in"},
		{"clients=3 scheduler=edf policy=adaptive epoch=10 duration=120 outage=0", "do not match"},
		{"clients=3 scheduler=EDF policy=adaptive epoch=10 duration=120 outage=0 outage-len=40", `unknown scheduler "EDF"`},
	} {
		_, err := ParseHotspotRun(bad.params)
		wantErr(t, bad.params, err, bad.want)
	}
}

// FuzzParseMACLoad: the parser takes a worker's wire input. It must never
// panic, and whatever it accepts is valid and is its own canonical
// encoding, so no two strings name one run.
func FuzzParseMACLoad(f *testing.F) {
	for _, s := range []string{
		"stations=4 rate=16 duration=30", "stations=16 rate=50 duration=30", "stations=2007 rate=0.1 duration=1e-06",
		"stations=04 rate=16 duration=30", "stations=4 rate=NaN duration=30", "stations=4 rate=1e300 duration=30",
		"stations=9223372036854775808 rate=16 duration=30", "stations=4 rate=16 duration=30 ", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, params string) {
		c, err := ParseMACLoad(params)
		if err != nil {
			if c != (MACLoad{}) {
				t.Errorf("ParseMACLoad(%q) failed but returned %+v", params, c)
			}
			return
		}
		if c.Params() != params {
			t.Errorf("ParseMACLoad(%q) accepted a non-canonical spelling of %q", params, c.Params())
		}
		if err := c.Validate(); err != nil {
			t.Errorf("ParseMACLoad(%q) accepted an invalid load: %v", params, err)
		}
	})
}

// FuzzParseHotspotRun is FuzzParseMACLoad for hotspotsim's scenario.
func FuzzParseHotspotRun(f *testing.F) {
	for _, s := range []string{
		defaultHotspotRun.Params(), e15Run.Params(),
		"clients=3 scheduler=wfq policy=bt epoch=10 duration=120 outage=20 outage-len=40",
		"clients=3 scheduler=edf policy=adaptive epoch=0.1 duration=120 outage=0 outage-len=40",
		"clients=3 scheduler=edf policy=adaptive epoch=10 duration=120 outage=-0 outage-len=40",
		"clients=3 scheduler= policy=adaptive epoch=10 duration=120 outage=0 outage-len=40",
		"clients=3 scheduler=edf policy=adaptive epoch=10 duration=+Inf outage=0 outage-len=40", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, params string) {
		c, err := ParseHotspotRun(params)
		if err != nil {
			if c != (HotspotRun{}) {
				t.Errorf("ParseHotspotRun(%q) failed but returned %+v", params, c)
			}
			return
		}
		if c.Params() != params {
			t.Errorf("ParseHotspotRun(%q) accepted a non-canonical spelling of %q", params, c.Params())
		}
		if err := c.Validate(); err != nil {
			t.Errorf("ParseHotspotRun(%q) accepted an invalid run: %v", params, err)
		}
	})
}

// TestWorkersRebuildFrontendSpecs runs the frontends' specs on a TCP
// worker, which rebuilds each from its (name, Params) through the
// builders this package registers, and demands the local bits. Two loads
// share the spec names cam, psm and ecmac and differ only in Params; the
// worker must tell them apart.
func TestWorkersRebuildFrontendSpecs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go scenario.ServeNet(ln, scenario.NetServeOptions{Log: io.Discard})
	sh := &scenario.Shard{Workers: 1, Addrs: []string{ln.Addr().String()}}
	defer sh.Close()

	specs := append(MACLoad{2, 16, 5}.Specs(), MACLoad{3, 16, 5}.Specs()...)
	specs = append(specs, HotspotRun{Clients: 2, Scheduler: "wfq", Policy: "adaptive",
		Epoch: 10, Duration: 30, OutageAt: 10, OutageLen: 10}.Spec())
	seeds := scenario.Seeds(1, 2)
	local, err := (&scenario.Runner{KeepPerSeed: true}).Run(specs, seeds)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := (&scenario.Runner{KeepPerSeed: true, Executor: sh}).Run(specs, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		for j := range seeds {
			want, _ := scenario.EncodeResult(local[i].PerSeed[j])
			got, _ := scenario.EncodeResult(remote[i].PerSeed[j])
			if string(got) != string(want) {
				t.Errorf("%s %q seed %d: worker computed %v, local %v", spec.Name, spec.Params, seeds[j],
					remote[i].PerSeed[j].Values, local[i].PerSeed[j].Values)
			}
		}
	}
	if local[1].PerSeed[0].Values["delivered"] == local[4].PerSeed[0].Values["delivered"] {
		t.Error("2- and 3-station PSM loads delivered alike: the test cannot tell them apart")
	}
}
