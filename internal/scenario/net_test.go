package scenario

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startNetServer runs an in-process TCP worker server for the test and
// returns its address. Heartbeats default to a test-speed interval.
func startNetServer(t *testing.T, o NetServeOptions) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = 25 * time.Millisecond
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	go ServeNet(ln, o)
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// netShard builds a TCP-transport Shard against addr with test-speed
// supervision knobs.
func netShard(workers int, addr string, mutate func(*FaultPolicy)) *Shard {
	pol := fastPolicy()
	if mutate != nil {
		mutate(pol)
	}
	return &Shard{Workers: workers, Addrs: []string{addr}, Policy: pol}
}

// runCounted drives sh.Run directly and asserts the exactly-once emission
// contract: every seed index emitted exactly once, in order, with the
// bit-exact Result the spec computes locally.
func runCounted(t *testing.T, sh *Shard, seeds []int64) {
	t.Helper()
	spec, ok := Lookup("test-shardable")
	if !ok {
		t.Fatal("test-shardable not registered")
	}
	var mu sync.Mutex
	emitted := make(map[int]int)
	next := 0
	err := sh.Run(spec, seeds, func(ki int, res Result) {
		mu.Lock()
		defer mu.Unlock()
		emitted[ki]++
		if ki != next {
			t.Errorf("emit out of order: got index %d, want %d", ki, next)
		}
		next++
		want, _ := EncodeResult(spec.Execute(seeds[ki]))
		got, _ := EncodeResult(res)
		if string(want) != string(got) {
			t.Errorf("seed %d: result differs from local execution", seeds[ki])
		}
	})
	if err != nil {
		t.Fatalf("shard run: %v", err)
	}
	for ki := range seeds {
		if emitted[ki] != 1 {
			t.Errorf("seed index %d emitted %d times, want exactly once", ki, emitted[ki])
		}
	}
}

func TestNetShardMatchesLocalClean(t *testing.T) {
	addr := startNetServer(t, NetServeOptions{})
	sh := netShard(2, addr, nil)
	defer sh.Close()
	requireShardMatchesLocal(t, sh, Seeds(1, 16))
	h := sh.Health()
	if h.Failures() != 0 || h.Retries != 0 || h.Quarantined != 0 || h.Stales() != 0 || h.StaleReplies != 0 {
		t.Errorf("clean TCP run should have all-zero failure counters: %s", h.Summary())
	}
	if chunks(h) == 0 {
		t.Error("no chunks recorded — did the TCP transport actually run?")
	}
}

// TestNetWorkerServesTwoParameterisations: one TCP worker session answers
// two specs that share a name and differ only in Params, and each comes
// back with the bits it computes locally. The worker rebuilds every spec
// from its request, so no flag of its own can stand in for either.
func TestNetWorkerServesTwoParameterisations(t *testing.T) {
	addr := startNetServer(t, NetServeOptions{})
	sh := netShard(1, addr, nil) // one slot: one connection, one session
	defer sh.Close()
	var specs []Spec
	for _, params := range []string{"k=2", "k=5"} {
		spec, err := paramSpec(params)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	seeds := Seeds(1, 6)
	aggs := mustRun(t, &Runner{KeepPerSeed: true, Executor: sh}, specs, seeds)
	for i, spec := range specs {
		for j, seed := range seeds {
			want, _ := EncodeResult(spec.Execute(seed))
			got, _ := EncodeResult(aggs[i].PerSeed[j])
			if string(got) != string(want) {
				t.Errorf("%s %s seed %d: worker result differs from local execution", spec.Name, spec.Params, seed)
			}
		}
	}
	if metricsEqualBits(aggs[0].Metrics, aggs[1].Metrics) {
		t.Error("the two parameterisations aggregated identically: the test cannot tell them apart")
	}
	if h := sh.Health(); len(h.Workers) != 1 || h.Restarts() != 0 || h.Failures() != 0 || chunks(h) == 0 {
		t.Errorf("want one clean session serving both specs: %s", h.Summary())
	}
}

// TestNetShardDropConnReconnects: the server drops each of the first two
// connections mid-sweep; the slots must reconnect (next generation runs
// clean) and the sweep must stay lossless and bit-identical.
func TestNetShardDropConnReconnects(t *testing.T) {
	addr := startNetServer(t, NetServeOptions{
		ChaosSpec: "gen0:drop-conn-after=2;gen1:drop-conn-after=3",
	})
	sh := netShard(2, addr, nil)
	defer sh.Close()
	runCounted(t, sh, Seeds(1, 12))
	h := sh.Health()
	if h.Failures() == 0 || h.Retries == 0 {
		t.Errorf("expected dropped-connection failures and retries, got %s", h.Summary())
	}
	if h.Restarts() == 0 {
		t.Errorf("expected reconnects after dropped connections, got %s", h.Summary())
	}
}

// TestNetShardPartitionNoDuplicateOrLoss is the lease-epoch acceptance
// test: a blackholed (partitioned) worker holds a lease past the frame
// deadline; the chunk is reassigned, and whatever the zombie session left
// in flight must never surface — every seed is emitted exactly once with
// the locally computed bits.
func TestNetShardPartitionNoDuplicateOrLoss(t *testing.T) {
	addr := startNetServer(t, NetServeOptions{
		ChaosSpec: "gen0:blackhole-after=2;gen1:blackhole-after=3",
		Heartbeat: 20 * time.Millisecond,
	})
	sh := netShard(2, addr, func(p *FaultPolicy) {
		p.FrameTimeout = 250 * time.Millisecond
	})
	defer sh.Close()
	runCounted(t, sh, Seeds(1, 12))
	h := sh.Health()
	var timeouts int64
	for _, w := range h.Workers {
		timeouts += w.Timeouts
	}
	if timeouts == 0 {
		t.Errorf("expected frame-deadline timeouts from the partitioned sessions, got %s", h.Summary())
	}
}

// TestNetShardStaleReplayDiscarded: the worker replays a stale frame
// (previous response — wrong seed, possibly wrong epoch) ahead of a real
// one; the transport must skip it, count it, and complete the exchange
// with the correct response. Subprocess workers run the verb too.
func TestNetShardStaleReplayDiscarded(t *testing.T) {
	const replay = "gen0:replay-after=2;gen1:replay-after=3"
	for _, tc := range chaosTransports(t, replay, replay) {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.sh.Close()
			runCounted(t, tc.sh, Seeds(1, 12))
			h := tc.sh.Health()
			if h.Stales() == 0 {
				t.Errorf("expected stale replayed frames to be counted, got %s", h.Summary())
			}
			if h.Failures() != 0 {
				t.Errorf("a discarded stale frame is not a failure, got %s", h.Summary())
			}
		})
	}
}

// TestNetShardSlowLinkHeartbeatsKeepAlive: responses are delayed well past
// the frame deadline, but heartbeats keep flowing — the deadline machinery
// must not declare a partition.
func TestNetShardSlowLinkHeartbeatsKeepAlive(t *testing.T) {
	addr := startNetServer(t, NetServeOptions{
		ChaosSpec: "slowlink-ms=300",
		Heartbeat: 25 * time.Millisecond,
	})
	sh := netShard(1, addr, func(p *FaultPolicy) {
		p.FrameTimeout = 150 * time.Millisecond
	})
	defer sh.Close()
	runCounted(t, sh, Seeds(1, 3))
	if h := sh.Health(); h.Failures() != 0 {
		t.Errorf("slow link with live heartbeats must not trip the deadline: %s", h.Summary())
	}
}

// TestNetShardDialFailureDegrades: an unreachable fleet exhausts retries
// and the whole sweep degrades to in-process execution, losslessly.
func TestNetShardDialFailureDegrades(t *testing.T) {
	// A listener that is immediately closed: connection refused, instantly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	sh := netShard(2, addr, func(p *FaultPolicy) {
		p.MaxRetries = 1
		p.DialTimeout = 500 * time.Millisecond
	})
	defer sh.Close()
	seeds := Seeds(1, 4)
	runCounted(t, sh, seeds)
	h := sh.Health()
	if h.DegradedSeeds != int64(len(seeds)) {
		t.Errorf("want all %d seeds degraded to local, got %s", len(seeds), h.Summary())
	}
	var spawnFails int64
	for _, w := range h.Workers {
		spawnFails += w.SpawnFails
	}
	if spawnFails == 0 {
		t.Errorf("expected dial failures to be counted as spawn failures: %s", h.Summary())
	}
}

func TestNetShardDefaultsSlotsToFleetSize(t *testing.T) {
	addr := startNetServer(t, NetServeOptions{})
	sh := &Shard{Addrs: []string{addr, addr, addr}, Policy: fastPolicy()}
	defer sh.Close()
	runCounted(t, sh, Seeds(1, 6))
	if got := len(sh.Health().Workers); got != 3 {
		t.Errorf("Workers<1 with 3 addrs should open 3 slots, got %d", got)
	}
}

func TestServeNetRejectsBadChaos(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = ServeNet(ln, NetServeOptions{ChaosSpec: "not-a-key=1"})
	if err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Errorf("want chaos parse error, got %v", err)
	}
}
