package exp_test

import (
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/scenario"
)

// workerSentinel re-enters this test binary as a shard worker: the shard
// executor spawns `exp.test -run-as-scenario-worker` and the worker
// resolves experiments from the registry, which the exp import below
// populated exactly as it does in the real binaries.
const workerSentinel = "-run-as-scenario-worker"

func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == workerSentinel {
			if err := scenario.ServeWorker(os.Stdin, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "worker:", err)
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// TestCrossBackendEquivalence is the acceptance gate for the pluggable
// execution backends: for every registered experiment, the local pool, the
// multi-process shard backend (workers=2, faults disabled — its health
// counters must stay all-zero), a chaos-injected shard backend (worker
// crashes, corrupt frames and mid-chunk hangs on schedule — retries and
// restarts must not cost a single bit), the TCP-loopback shard backend
// (clean, then under injected network chaos: dropped connections, stale
// replays, blackholed sessions, a slow link) and the caching backend
// (cold, then warm from disk with an inner executor that must never run)
// produce bit-identical merged Results — per-seed values, rendered
// tables, and every aggregated metric.
func TestCrossBackendEquivalence(t *testing.T) {
	specs := scenario.All()
	if len(specs) < 20 {
		t.Fatalf("registry has only %d specs", len(specs))
	}
	seeds := scenario.Seeds(1, 2)

	run := func(name string, exec scenario.Executor) []scenario.AggResult {
		t.Helper()
		r := &scenario.Runner{Parallel: runtime.NumCPU(), KeepPerSeed: true, Executor: exec}
		aggs, err := r.Run(specs, seeds)
		if err != nil {
			t.Fatalf("%s backend: %v", name, err)
		}
		return aggs
	}

	local := run("local", nil)

	sh := &scenario.Shard{Workers: 2, Argv: []string{os.Args[0], workerSentinel}}
	sharded := run("shard", sh)
	if err := sh.Close(); err != nil {
		t.Fatalf("shard close: %v", err)
	}
	// With all faults disabled the supervision layer must be invisible:
	// zero retries, restarts, failures and quarantines.
	if h := sh.Health(); h.Failures() != 0 || h.Retries != 0 || h.Restarts() != 0 ||
		h.Quarantined != 0 || h.DegradedSeeds != 0 {
		t.Errorf("fault-free shard run tripped the supervisor: %s", h.Summary())
	} else if n := chunks(h); n != int64(len(specs)*len(seeds)) {
		t.Errorf("fault-free shard run completed %d chunks, want %d", n, len(specs)*len(seeds))
	}

	// Chaos-injected shard: each worker slot's first process crashes on its
	// 3rd request, its second emits a corrupt frame, its third hangs until
	// the chunk deadline reaps it, its fourth delays benignly, and later
	// generations run clean. All three failure detectors fire; the results
	// must still be bit-identical to Local.
	chaosSh := &scenario.Shard{
		Workers: 2,
		Argv:    []string{os.Args[0], workerSentinel},
		Chaos:   "gen0:crash-after=3;gen1:corrupt-after=2;gen2:hang-after=2;gen3:delay-every=5,delay-ms=2",
		Policy: &scenario.FaultPolicy{
			MaxRetries:     3,
			ChunkTimeout:   5 * time.Second,
			RestartBackoff: 5 * time.Millisecond,
			DegradeToLocal: true,
			ChunkSeeds:     2,
			Window:         4,
			DialTimeout:    5 * time.Second,
			FrameTimeout:   5 * time.Second,
		},
	}
	chaotic := run("shard-chaos", chaosSh)
	if err := chaosSh.Close(); err != nil {
		t.Fatalf("chaos shard close: %v", err)
	}
	if h := chaosSh.Health(); h.Failures() == 0 || h.Retries == 0 || h.Restarts() == 0 {
		t.Errorf("chaos schedule injected no faults (test is vacuous): %s", h.Summary())
	}

	// TCP-loopback shard: the same coordinator over the network transport,
	// served in-process by ServeNet. Clean first — the connection-level
	// supervision (deadlines, heartbeats, epochs) must be invisible on a
	// healthy network: all-zero failure counters, every chunk accounted.
	cleanLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go scenario.ServeNet(cleanLn, scenario.NetServeOptions{Heartbeat: 50 * time.Millisecond, Log: io.Discard})
	tcpSh := &scenario.Shard{Workers: 2, Addrs: []string{cleanLn.Addr().String()}}
	tcp := run("shard-tcp", tcpSh)
	if err := tcpSh.Close(); err != nil {
		t.Fatalf("tcp shard close: %v", err)
	}
	cleanLn.Close()
	if h := tcpSh.Health(); h.Failures() != 0 || h.Retries != 0 || h.Restarts() != 0 ||
		h.Quarantined != 0 || h.DegradedSeeds != 0 || h.Stales() != 0 || h.StaleReplies != 0 {
		t.Errorf("fault-free TCP shard run tripped the supervisor: %s", h.Summary())
	} else if n := chunks(h); n != int64(len(specs)*len(seeds)) {
		t.Errorf("fault-free TCP shard run completed %d chunks, want %d", n, len(specs)*len(seeds))
	}

	// Network-chaos TCP shard: the first accepted connection is dropped
	// mid-sweep, the second replays a stale frame (wrong epoch — must be
	// discarded, not double-emitted), the third blackholes (accepts, then
	// stalls responses and heartbeats until the frame deadline reaps it),
	// the fourth serves over a slow link where only heartbeats keep the
	// deadline fed, and later connections run clean. Reconnects, retries
	// and epoch checks must not cost a single output bit.
	chaosLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go scenario.ServeNet(chaosLn, scenario.NetServeOptions{
		ChaosSpec: "gen0:drop-conn-after=3;gen1:replay-after=2;gen2:blackhole-after=2;gen3:slowlink-ms=50",
		Heartbeat: 25 * time.Millisecond,
		Log:       io.Discard,
	})
	tcpChaosSh := &scenario.Shard{
		Workers: 2,
		Addrs:   []string{chaosLn.Addr().String()},
		Policy: &scenario.FaultPolicy{
			MaxRetries:     3,
			ChunkTimeout:   10 * time.Second,
			RestartBackoff: 5 * time.Millisecond,
			DegradeToLocal: true,
			ChunkSeeds:     2,
			Window:         4,
			DialTimeout:    5 * time.Second,
			FrameTimeout:   500 * time.Millisecond,
		},
	}
	tcpChaotic := run("shard-tcp-chaos", tcpChaosSh)
	if err := tcpChaosSh.Close(); err != nil {
		t.Fatalf("tcp chaos shard close: %v", err)
	}
	chaosLn.Close()
	if h := tcpChaosSh.Health(); h.Failures() == 0 || h.Retries == 0 || h.Restarts() == 0 || h.Stales() == 0 {
		t.Errorf("TCP chaos schedule injected no faults (test is vacuous): %s", h.Summary())
	}

	dir := t.TempDir()
	coldCache := &scenario.Cache{Inner: &scenario.Local{Parallel: runtime.NumCPU()}, Dir: dir}
	cold := run("cache-cold", coldCache)
	if s := coldCache.Stats(); s.Hits != 0 || s.Misses != int64(len(specs)*len(seeds)) || s.WriteErrs != 0 {
		t.Errorf("cold cache stats %+v, want 0 hits / %d misses", s, len(specs)*len(seeds))
	}
	warmCache := &scenario.Cache{Inner: scenario.FailExecutor("cache missed on warm run"), Dir: dir}
	warm := run("cache-warm", warmCache)
	if s := warmCache.Stats(); s.Hits != int64(len(specs)*len(seeds)) || s.Misses != 0 {
		t.Errorf("warm cache stats %+v, want all hits", s)
	}

	for name, aggs := range map[string][]scenario.AggResult{
		"shard": sharded, "shard-chaos": chaotic,
		"shard-tcp": tcp, "shard-tcp-chaos": tcpChaotic,
		"cache-cold": cold, "cache-warm": warm,
	} {
		requireAggsBitIdentical(t, name, local, aggs)
	}
}

// requireAggsBitIdentical demands full bit-identity between two backend
// runs: metric floats compare by bit pattern (reflect.DeepEqual would both
// reject equal NaNs and accept -0 == +0).
func requireAggsBitIdentical(t *testing.T, backend string, want, got []scenario.AggResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d aggregates, want %d", backend, len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		name := a.Spec.Name
		if b.Spec.Name != name {
			t.Fatalf("%s: aggregate %d is %q, want %q", backend, i, b.Spec.Name, name)
		}
		if len(a.Metrics) != len(b.Metrics) {
			t.Errorf("%s/%s: %d metrics, want %d", backend, name, len(b.Metrics), len(a.Metrics))
			continue
		}
		for j := range a.Metrics {
			ma, mb := a.Metrics[j], b.Metrics[j]
			if ma.Name != mb.Name || ma.N != mb.N ||
				math.Float64bits(ma.Mean) != math.Float64bits(mb.Mean) ||
				math.Float64bits(ma.CI95) != math.Float64bits(mb.CI95) ||
				math.Float64bits(ma.Min) != math.Float64bits(mb.Min) ||
				math.Float64bits(ma.Max) != math.Float64bits(mb.Max) {
				t.Errorf("%s/%s: metric %s diverged: %+v vs %+v", backend, name, ma.Name, ma, mb)
			}
		}
		if a.Table() != b.Table() {
			t.Errorf("%s/%s: rendered aggregate tables not byte-identical", backend, name)
		}
		if len(a.PerSeed) != len(b.PerSeed) {
			t.Errorf("%s/%s: %d per-seed results, want %d", backend, name, len(b.PerSeed), len(a.PerSeed))
			continue
		}
		for k := range a.PerSeed {
			pa, pb := a.PerSeed[k], b.PerSeed[k]
			if pa.Name != pb.Name || pa.Table != pb.Table {
				t.Errorf("%s/%s: seed %d name/table diverged", backend, name, a.Seeds[k])
			}
			if len(pa.Values) != len(pb.Values) {
				t.Errorf("%s/%s: seed %d value sets differ", backend, name, a.Seeds[k])
				continue
			}
			for key, va := range pa.Values {
				vb, ok := pb.Values[key]
				if !ok || math.Float64bits(va) != math.Float64bits(vb) {
					t.Errorf("%s/%s: seed %d value %q: %v vs %v", backend, name, a.Seeds[k], key, va, vb)
				}
			}
		}
	}
}

// chunks sums the leases a Shard's workers completed.
func chunks(h scenario.ShardHealth) int64 {
	var n int64
	for _, w := range h.Workers {
		n += w.Chunks
	}
	return n
}
