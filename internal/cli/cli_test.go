package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

func testSpec() scenario.Spec {
	return scenario.Spec{
		Name: "t", Desc: "test spec",
		Run: func(seed int64) scenario.Result {
			return scenario.Result{Name: "t", Values: map[string]float64{"seed": float64(seed)}}
		},
	}
}

func TestRegisterDefaults(t *testing.T) {
	var f RunFlags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse([]string{"-seed", "7", "-seeds", "3", "-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
	if f.Seed != 7 || f.SeedsN != 3 || f.Parallel != 2 {
		t.Fatalf("parsed flags %+v", f)
	}
	if f.Backend != "local" || f.Workers < 1 || f.CacheDir != ".repro-cache" || f.Worker {
		t.Fatalf("backend defaults wrong: %+v", f)
	}
	if def := scenario.DefaultFaultPolicy(); f.Policy != def || f.Chaos != "" {
		t.Fatalf("fault-policy defaults wrong: %+v, want %+v", f.Policy, def)
	}
	seeds := f.Seeds()
	if len(seeds) != 3 || seeds[0] != 7 || seeds[2] != 9 {
		t.Fatalf("Seeds() = %v, want [7 8 9]", seeds)
	}
}

// TestShardFlagBounds pins the bounds on the fleet-sizing flags: values
// too large to allocate are usage errors naming the flag, not a makechan
// panic or an out-of-memory crash in the runtime. Where int is 32 bits the
// flag package already rejects the largest values while parsing, naming
// the flag just the same.
func TestShardFlagBounds(t *testing.T) {
	cases := []struct {
		args []string
		bad  string // the flag the error must name; "" means accepted
	}{
		{[]string{"-window", "2000000000000000000"}, "-window"},
		{[]string{"-window", "4000000000"}, "-window"},
		{[]string{"-window", fmt.Sprint(scenario.MaxWindow + 1)}, "-window"},
		{[]string{"-workers", "100000000000"}, "-workers"},
		{[]string{"-workers", fmt.Sprint(scenario.MaxWorkers + 1)}, "-workers"},
		{[]string{"-window", fmt.Sprint(scenario.MaxWindow)}, ""},
		{[]string{"-workers", fmt.Sprint(scenario.MaxWorkers)}, ""},
		{[]string{"-window", "-1"}, ""},
		{[]string{"-workers", "0"}, ""},
	}
	for _, c := range cases {
		var f RunFlags
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		f.Register(fs)
		fs.SetOutput(io.Discard)
		if err := fs.Parse(append([]string{"-backend", "shard"}, c.args...)); err != nil {
			if c.bad == "" || !strings.Contains(err.Error(), c.bad) {
				t.Errorf("%v: parse error %v", c.args, err)
			}
			continue
		}
		exec, err := f.Executor()
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%v rejected: %v", c.args, err)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad)):
			t.Errorf("%v: error %v, want one naming %s", c.args, err, c.bad)
		}
		if cl, ok := exec.(interface{ Close() error }); ok {
			cl.Close()
		}
	}
}

func TestChaosFlagValidation(t *testing.T) {
	// -chaos needs the shard backend.
	f := RunFlags{Backend: "local", Chaos: "crash-after=1"}
	if _, err := f.Executor(); err == nil {
		t.Error("-chaos with local backend accepted")
	}
	// A malformed schedule fails at Executor construction, not in a worker.
	f = RunFlags{Backend: "shard", Workers: 1, Chaos: "no-such-key=1"}
	if _, err := f.Executor(); err == nil {
		t.Error("malformed -chaos schedule accepted")
	}
	f = RunFlags{Backend: "shard", Workers: 1, Chaos: "crash-after=1,gens=1"}
	if _, err := f.Executor(); err != nil {
		t.Errorf("valid -chaos schedule rejected: %v", err)
	}
}

// TestFaultPolicyFlagsAreLiteral pins the flag→policy mapping: each flag sets
// its FaultPolicy field to the literal value given, so zero flags build the
// zero policy (every knob off) and other values pass straight through.
func TestFaultPolicyFlagsAreLiteral(t *testing.T) {
	for _, c := range []struct {
		args []string
		want scenario.FaultPolicy
	}{
		{[]string{"-max-retries", "0", "-chunk-timeout", "0", "-restart-backoff", "0", "-degrade-local=false",
			"-window", "0", "-dial-timeout", "0", "-frame-timeout", "0"}, scenario.FaultPolicy{}},
		{[]string{"-max-retries", "5", "-chunk-timeout", "1m", "-restart-backoff", "1s", "-chunk-seeds", "16",
			"-window", "8", "-dial-timeout", "2s", "-frame-timeout", "3s"}, scenario.FaultPolicy{
			MaxRetries: 5, ChunkTimeout: time.Minute, RestartBackoff: time.Second, DegradeToLocal: true,
			ChunkSeeds: 16, Window: 8, DialTimeout: 2 * time.Second, FrameTimeout: 3 * time.Second,
		}},
		{nil, scenario.DefaultFaultPolicy()},
	} {
		var f RunFlags
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		f.Register(fs)
		if err := fs.Parse(append([]string{"-backend", "shard"}, c.args...)); err != nil {
			t.Fatal(err)
		}
		exec, err := f.Executor()
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if got := exec.(*scenario.Shard).Policy; got == nil || *got != c.want {
			t.Errorf("%v built policy %+v, want %+v", c.args, got, c.want)
		}
	}
}

// TestDistributedFlagValidation pins the cross-flag rules for the TCP
// transport: -addrs needs the shard backend, -store needs the cached
// backend, and -chaos cannot reach a remote fleet (it belongs on the
// -serve process).
func TestDistributedFlagValidation(t *testing.T) {
	f := RunFlags{Backend: "local", Addrs: "127.0.0.1:1"}
	if _, err := f.Executor(); err == nil {
		t.Error("-addrs with local backend accepted")
	}
	f = RunFlags{Backend: "local", Store: "127.0.0.1:1"}
	if _, err := f.Executor(); err == nil {
		t.Error("-store with local backend accepted")
	}
	f = RunFlags{Backend: "shard", Workers: 1, Addrs: "127.0.0.1:1", Chaos: "crash-after=1"}
	if _, err := f.Executor(); err == nil {
		t.Error("-chaos with -addrs accepted")
	}

	f = RunFlags{Backend: "shard", Workers: 2, Addrs: "10.0.0.1:7401,10.0.0.2:7401"}
	exec, err := f.Executor()
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := exec.(*scenario.Shard)
	if !ok {
		t.Fatalf("-addrs built %T, want *scenario.Shard", exec)
	}
	if len(sh.Addrs) != 2 || sh.Addrs[0] != "10.0.0.1:7401" {
		t.Errorf("Addrs = %v", sh.Addrs)
	}

	// Without an explicit -workers the slot count defaults to the fleet
	// size (Workers 0 → one slot per address), not NumCPU.
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var g RunFlags
	g.Register(fs)
	if err := fs.Parse([]string{"-backend", "shard", "-addrs", "10.0.0.1:7401,10.0.0.2:7401"}); err != nil {
		t.Fatal(err)
	}
	exec, err = g.Executor()
	if err != nil {
		t.Fatal(err)
	}
	if sh := exec.(*scenario.Shard); sh.Workers != 0 {
		t.Errorf("implicit -workers should defer to fleet size, got Workers=%d", sh.Workers)
	}

	fs = flag.NewFlagSet("x", flag.ContinueOnError)
	var h RunFlags
	h.Register(fs)
	if err := fs.Parse([]string{"-backend", "shard", "-addrs", "10.0.0.1:7401", "-workers", "4"}); err != nil {
		t.Fatal(err)
	}
	exec, err = h.Executor()
	if err != nil {
		t.Fatal(err)
	}
	if sh := exec.(*scenario.Shard); sh.Workers != 4 {
		t.Errorf("explicit -workers should win, got Workers=%d", sh.Workers)
	}
}

func TestBackendSelection(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var f RunFlags
	f.Register(fs)
	if err := fs.Parse([]string{"-backend", "shard", "-workers", "3", "-cache-dir", "/tmp/c", "-worker"}); err != nil {
		t.Fatal(err)
	}
	if f.Backend != "shard" || f.Workers != 3 || f.CacheDir != "/tmp/c" || !f.Worker {
		t.Fatalf("parsed flags %+v", f)
	}

	for backend, want := range map[string]any{
		"":       &scenario.Local{},
		"local":  &scenario.Local{},
		"shard":  &scenario.Shard{},
		"cached": &scenario.Cache{},
	} {
		g := RunFlags{Backend: backend, Parallel: 2, Workers: 2, CacheDir: t.TempDir()}
		exec, err := g.Executor()
		if err != nil {
			t.Fatalf("backend %q: %v", backend, err)
		}
		if gotT, wantT := fmt.Sprintf("%T", exec), fmt.Sprintf("%T", want); gotT != wantT {
			t.Errorf("backend %q built %s, want %s", backend, gotT, wantT)
		}
	}
	if _, err := (&RunFlags{Backend: "quantum"}).Executor(); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestRunCachedBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := RunFlags{Seed: 1, SeedsN: 3, Parallel: 2, Backend: "cached", CacheDir: dir}
	cold, err := f.Run([]scenario.Spec{testSpec()}, false)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := f.Run([]scenario.Spec{testSpec()}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != 1 || len(warm) != 1 {
		t.Fatalf("aggregate shapes: %d / %d", len(cold), len(warm))
	}
	if !reflect.DeepEqual(cold[0].Metrics, warm[0].Metrics) {
		t.Errorf("warm run diverged:\ncold %+v\nwarm %+v", cold[0].Metrics, warm[0].Metrics)
	}
}

func TestRunAggregatesAcrossSeeds(t *testing.T) {
	f := RunFlags{Seed: 1, SeedsN: 4, Parallel: 2}
	aggs, err := f.Run([]scenario.Spec{testSpec()}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 1 || len(aggs[0].Metrics) != 1 {
		t.Fatalf("unexpected aggregate shape: %+v", aggs)
	}
	if m := aggs[0].Metrics[0]; m.N != 4 || m.Mean != 2.5 {
		t.Fatalf("seed metric = %+v, want mean 2.5 over 4 seeds", m)
	}
}

func TestRunRejectsSeedsBelowOne(t *testing.T) {
	// scenario.Seeds clamps n < 1 to one seed; the flag layer must not let
	// "-seeds 0" or "-seeds -3" silently print a seed-1 table.
	for _, n := range []int{0, -3} {
		ran := false
		spec := testSpec()
		spec.Run = func(seed int64) scenario.Result {
			ran = true
			return scenario.Result{Name: "t"}
		}
		f := RunFlags{Seed: 1, SeedsN: n, Parallel: 1}
		aggs, err := f.Run([]scenario.Spec{spec}, false)
		if err == nil || !strings.Contains(err.Error(), "-seeds") {
			t.Errorf("-seeds %d: err = %v, want a -seeds usage error", n, err)
		}
		if aggs != nil || ran {
			t.Errorf("-seeds %d: ran the spec (aggs %v)", n, aggs)
		}
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	f := RunFlags{
		Seed: 1, SeedsN: 2, Parallel: 1,
		CPUProfile: filepath.Join(dir, "cpu.out"),
		MemProfile: filepath.Join(dir, "mem.out"),
	}
	if _, err := f.Run([]scenario.Spec{testSpec()}, false); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{f.CPUProfile, f.MemProfile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestStartProfilesErrorOnBadPath(t *testing.T) {
	f := RunFlags{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out")}
	if _, err := f.StartProfiles(); err == nil {
		t.Fatal("StartProfiles accepted an unwritable path")
	}
}
