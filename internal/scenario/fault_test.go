package scenario

import (
	"bytes"
	"cmp"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseChaos(t *testing.T) {
	c, err := ParseChaos("crash-after=3,delay-every=2,delay-ms=5,gens=2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.CrashAfter != 3 || c.DelayEvery != 2 || c.Delay != 5*time.Millisecond || c.Gens != 2 {
		t.Errorf("flat clause parsed wrong: %+v", c)
	}
	if !c.active() {
		t.Error("configured chaos should be active")
	}

	// gens ages the faults out for later generations.
	if c, _ = ParseChaos("crash-after=3,gens=2", 2); c.active() {
		t.Errorf("gen 2 should run clean under gens=2, got %+v", c)
	}
	if c, _ = ParseChaos("crash-after=3,gens=2", 1); !c.active() {
		t.Error("gen 1 should still be faulty under gens=2")
	}

	// Generation schedules pick the matching clause; unmatched gens run clean.
	spec := "gen0:crash-after=1;gen1:corrupt-after=2,hang-ms=7"
	if c, _ = ParseChaos(spec, 0); c.CrashAfter != 1 || c.CorruptAfter != 0 {
		t.Errorf("gen 0 clause wrong: %+v", c)
	}
	if c, _ = ParseChaos(spec, 1); c.CorruptAfter != 2 || c.HangFor != 7*time.Millisecond || c.CrashAfter != 0 {
		t.Errorf("gen 1 clause wrong: %+v", c)
	}
	if c, _ = ParseChaos(spec, 5); c.active() {
		t.Errorf("unscheduled gen should run clean, got %+v", c)
	}

	// Defaults for the durations.
	if c, _ = ParseChaos("hang-after=1", 0); c.HangFor != time.Hour {
		t.Errorf("HangFor default = %v, want 1h", c.HangFor)
	}
	if c, _ = ParseChaos("delay-every=1", 0); c.Delay != 10*time.Millisecond {
		t.Errorf("Delay default = %v, want 10ms", c.Delay)
	}

	// Network verbs (TCP worker sessions).
	c, err = ParseChaos("drop-conn-after=2,blackhole-after=3,slowlink-ms=40,replay-after=5", 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.DropConnAfter != 2 || c.BlackholeAfter != 3 || c.SlowLink != 40*time.Millisecond || c.ReplayAfter != 5 {
		t.Errorf("network verbs parsed wrong: %+v", c)
	}
	if !c.active() {
		t.Error("network chaos should be active")
	}
	if c, _ = ParseChaos("slowlink-ms=0", 0); c.active() {
		t.Errorf("slowlink-ms=0 should be inactive, got %+v", c)
	}

	// The empty spec is no chaos.
	if c, err = ParseChaos("", 0); err != nil || c.active() {
		t.Errorf("empty spec: %+v / %v", c, err)
	}

	for _, bad := range []string{
		"crash-after",                           // not key=value
		"crash-after=x",                         // not an integer
		"crash-after=-1",                        // negative
		"no-such-key=1",                         // unknown key
		"gen:crash-after=1",                     // bad generation label
		"genx:crash-after=1",                    // bad generation label
		"0:crash-after=1",                       // clause without gen prefix
		"gen0:crash-after",                      // bad body inside a schedule
		"delay-every=1,delay-ms=18446744073709", // Delay would wrap negative
		"slowlink-ms=9300000000000000",          // SlowLink would wrap
		"hang-ms=9223372036855",                 // one past the largest duration
	} {
		if _, err := ParseChaos(bad, 0); err == nil {
			t.Errorf("ParseChaos(%q) should fail", bad)
		}
	}
	if c, err := ParseChaos("hang-ms=9223372036854", 0); err != nil || c.HangFor <= 0 {
		t.Errorf("largest hang-ms: %v / %v", c.HangFor, err)
	}
}

// FuzzParseChaos feeds ParseChaos outside input (the -chaos flag and
// REPRO_CHAOS): it must never panic, and a schedule it accepts has no
// negative duration.
func FuzzParseChaos(f *testing.F) {
	for _, seed := range []string{
		"crash-after=3,gens=2",
		"gen0:crash-after=3;gen1:corrupt-after=2;gen2:hang-after=1",
		"delay-every=1,delay-ms=18446744073709",
		"slowlink-ms=9300000000000000",
	} {
		f.Add(seed, 0)
		f.Add(seed, 1)
	}
	f.Fuzz(func(t *testing.T, spec string, gen int) {
		c, err := ParseChaos(spec, gen)
		if err != nil {
			return
		}
		v := reflect.ValueOf(c)
		for i := 0; i < v.NumField(); i++ {
			if d, ok := v.Field(i).Interface().(time.Duration); ok && d < 0 {
				t.Errorf("ParseChaos(%q, %d).%s = %v", spec, gen, v.Type().Field(i).Name, d)
			}
		}
	})
}

func TestChaosFromEnvRejectsBadSchedule(t *testing.T) {
	t.Setenv(chaosEnv, "definitely not a schedule")
	var in, out bytes.Buffer
	if err := ServeWorker(&in, &out); err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Errorf("ServeWorker should refuse to start under a malformed schedule, got %v", err)
	}
}

func TestFaultPolicyNormalize(t *testing.T) {
	def := DefaultFaultPolicy()
	if got := (FaultPolicy{}).normalized(); got != def {
		t.Errorf("zero policy should normalize to the defaults: %+v", got)
	}
	// Partial: zero fields take defaults, negatives disable, DegradeToLocal
	// is honoured as given.
	p := FaultPolicy{MaxRetries: -1, ChunkTimeout: -1, RestartBackoff: -1, DegradeToLocal: true}.normalized()
	if p.MaxRetries != 0 || p.ChunkTimeout != 0 || p.RestartBackoff != 0 {
		t.Errorf("negatives should disable: %+v", p)
	}
	if p.MaxBackoff != def.MaxBackoff || p.ChunkSeeds != def.ChunkSeeds {
		t.Errorf("unset fields should default: %+v", p)
	}
	p = FaultPolicy{MaxRetries: 7, DegradeToLocal: true}.normalized()
	if p.MaxRetries != 7 || p.ChunkTimeout != def.ChunkTimeout || !p.DegradeToLocal {
		t.Errorf("partial policy normalized wrong: %+v", p)
	}
}

// chaosShard builds a Shard on the test-binary worker with the given
// fault-injection schedule and test-speed supervision.
func chaosShard(workers int, chaos string, mutate func(*FaultPolicy)) *Shard {
	pol := fastPolicy()
	if mutate != nil {
		mutate(&pol)
	}
	return &Shard{
		Workers: workers,
		Argv:    []string{os.Args[0], workerSentinel},
		Chaos:   chaos,
		Policy:  pol,
	}
}

// requireShardMatchesLocal runs the registered shardable spec on sh and on
// the Local backend and demands bit-identical aggregates.
func requireShardMatchesLocal(t *testing.T, sh *Shard, seeds []int64) {
	t.Helper()
	spec, ok := Lookup("test-shardable")
	if !ok {
		t.Fatal("test-shardable not registered")
	}
	local := mustRun(t, &Runner{Parallel: 4, KeepPerSeed: true}, []Spec{spec}, seeds)
	sharded := mustRun(t, &Runner{KeepPerSeed: true, Executor: sh}, []Spec{spec}, seeds)
	if !metricsEqualBits(local[0].Metrics, sharded[0].Metrics) {
		t.Errorf("chaos changed the results:\nlocal %+v\nshard %+v",
			local[0].Metrics, sharded[0].Metrics)
	}
	if local[0].Table() != sharded[0].Table() {
		t.Error("rendered tables not byte-identical under chaos")
	}
}

// TestShardSurvivesCrashingWorkers injects "every worker's first two
// processes crash on their 2nd request" and demands a complete,
// bit-identical run with the failures visible in the health counters.
func TestShardSurvivesCrashingWorkers(t *testing.T) {
	sh := chaosShard(2, "crash-after=2,gens=2", nil)
	defer sh.Close()
	requireShardMatchesLocal(t, sh, Seeds(10, 8)) // includes 13, the NaN seed

	h := sh.Health()
	if h.Restarts() == 0 {
		t.Errorf("crashing fleet should have restarted workers: %s", h.Summary())
	}
	if h.Failures() == 0 || h.Retries == 0 {
		t.Errorf("crashes should be counted: %s", h.Summary())
	}
}

// transportCase is one Shard under test, named by its transport.
type transportCase struct {
	name string
	sh   *Shard
}

// chaosTransports builds a two-slot Shard per transport: subprocess
// workers read procChaos from the environment, an in-process ServeNet
// takes netChaos as its ChaosSpec. Both run the same session loop, so
// every verb must behave the same on either. A subprocess generation
// counts per slot but a TCP one per accepted connection, so with two
// slots "gens=1" on subprocesses is "gens=2" over TCP.
func chaosTransports(t *testing.T, procChaos, netChaos string) []transportCase {
	return []transportCase{
		{"subprocess", chaosShard(2, procChaos, nil)},
		{"tcp", netShard(2, startNetServer(t, NetServeOptions{ChaosSpec: netChaos}), nil)},
	}
}

// TestShardRecoversFromCorruptFrames injects a well-framed garbage payload
// as each first-generation worker's first response: the decode detector,
// not the process watcher, must catch it, and the retry on a restarted or
// redialed session must keep the run bit-identical.
func TestShardRecoversFromCorruptFrames(t *testing.T) {
	for _, tc := range chaosTransports(t, "corrupt-after=1,gens=1", "corrupt-after=1,gens=2") {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.sh.Close()
			requireShardMatchesLocal(t, tc.sh, Seeds(10, 6))

			h := tc.sh.Health()
			var decodes int64
			for _, w := range h.Workers {
				decodes += w.DecodeErrs
			}
			if decodes == 0 {
				t.Errorf("corrupt frames should be classified as decode failures: %s", h.Summary())
			}
			if h.Restarts() == 0 {
				t.Errorf("a decode fault should end the session and open a new one: %s", h.Summary())
			}
		})
	}
}

// TestShardRecoversFromTruncatedFrames injects a header promising more
// payload than the dying worker delivers.
func TestShardRecoversFromTruncatedFrames(t *testing.T) {
	sh := chaosShard(2, "trunc-after=1,gens=1", nil)
	defer sh.Close()
	requireShardMatchesLocal(t, sh, Seeds(10, 6))
	if h := sh.Health(); h.Failures() == 0 {
		t.Errorf("truncated frames should be counted as failures: %s", h.Summary())
	}
}

// TestShardReapsHungWorker injects an effectively infinite hang into each
// first-generation worker; the chunk deadline must kill and replace it.
func TestShardReapsHungWorker(t *testing.T) {
	sh := chaosShard(2, "hang-after=1,gens=1", func(p *FaultPolicy) {
		p.ChunkTimeout = 300 * time.Millisecond
	})
	defer sh.Close()
	requireShardMatchesLocal(t, sh, Seeds(10, 6))

	h := sh.Health()
	var timeouts int64
	for _, w := range h.Workers {
		timeouts += w.Timeouts
	}
	if timeouts == 0 {
		t.Errorf("hung workers should be reaped as timeouts: %s", h.Summary())
	}
}

// TestShardCleanRunHasZeroFailureCounters pins the converse: benign delays
// (or no chaos at all) must not trip any failure detector.
func TestShardCleanRunHasZeroFailureCounters(t *testing.T) {
	sh := chaosShard(2, "delay-every=3,delay-ms=1", nil)
	defer sh.Close()
	requireShardMatchesLocal(t, sh, Seeds(10, 6))

	h := sh.Health()
	if h.Failures() != 0 || h.Retries != 0 || h.Restarts() != 0 || h.Quarantined != 0 || h.DegradedSeeds != 0 {
		t.Errorf("benign delays tripped a failure detector: %s", h.Summary())
	}
	if h.Chunks() != 6 {
		t.Errorf("chunks ok = %d, want 6", h.Chunks())
	}
}

// TestShardChunkedLeases runs multiple seeds per lease and checks the
// results and accounting still line up.
func TestShardChunkedLeases(t *testing.T) {
	sh := chaosShard(2, "", func(p *FaultPolicy) { p.ChunkSeeds = 3 })
	defer sh.Close()
	requireShardMatchesLocal(t, sh, Seeds(10, 8))

	h := sh.Health()
	if h.Chunks() != 3 { // 8 seeds in chunks of 3 → 3+3+2
		t.Errorf("chunks ok = %d, want 3", h.Chunks())
	}
	var seeds int64
	for _, w := range h.Workers {
		seeds += w.Seeds
	}
	if seeds != 8 {
		t.Errorf("seeds computed = %d, want 8", seeds)
	}
}

// TestShardSizesLeasesFromRun pins automatic lease sizing (ChunkSeeds
// unset): a large cheap sweep is cut into a few dozen leases that still
// reach every slot, a small run keeps one-seed leases, a short chunk
// deadline caps the chunk, and a crash inside an auto-sized chunk costs a
// retry, never a bit. Two slots with the default Window of 4 make the
// divisor 2 × 4 × leaseWindows = 64.
//
// Every slot must complete a lease in every case. The crash therefore
// comes on the 13th seed, the 5th of a process's second chunk: each
// slot's first process completes its first chunk before dying. A crash on
// the first chunk let one slot's replacement drain all 64 leases before
// the other slot had restarted, about once in eight runs.
func TestShardSizesLeasesFromRun(t *testing.T) {
	cases := []struct {
		name    string
		chaos   string
		timeout time.Duration
		seeds   int
		leases  int64
	}{
		{"large-sweep", "", 2 * time.Minute, 2048, 64},                         // 2048/64 = 32 seeds a lease
		{"small-run", "", 2 * time.Minute, 16, 16},                             // 16/64 rounds down: one seed a lease
		{"short-deadline", "", 4 * time.Second, 512, 256},                      // 512/64 = 8, capped at 4 s / 2 s = 2
		{"crash-mid-chunk", "crash-after=13,gens=1", 2 * time.Minute, 512, 64}, // chunks of 8; first processes die on their 13th seed
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sh := chaosShard(2, c.chaos, func(p *FaultPolicy) { p.ChunkTimeout = c.timeout })
			defer sh.Close()
			if sh.Policy.ChunkSeeds != 0 {
				t.Fatalf("ChunkSeeds = %d, want the zero default", sh.Policy.ChunkSeeds)
			}
			requireShardMatchesLocal(t, sh, Seeds(1, c.seeds))

			h := sh.Health()
			var seeds int64
			for _, w := range h.Workers {
				seeds += w.Seeds
				if w.Chunks == 0 {
					t.Errorf("slot %d took no lease: %s", w.ID, h.Summary())
				}
			}
			if h.Chunks() != c.leases || seeds != int64(c.seeds) {
				t.Errorf("%d leases carrying %d seeds, want %d carrying %d", h.Chunks(), seeds, c.leases, c.seeds)
			}
			if h.Quarantined != 0 {
				t.Errorf("no lease should have been degraded: %s", h.Summary())
			}
			if c.chaos != "" && (h.Retries == 0 || h.Restarts() == 0) {
				t.Errorf("the mid-chunk crash never fired: %s", h.Summary())
			}
		})
	}
}

// TestChunkFor pins the lease-size rule itself, including the bounds the
// runs above do not reach.
func TestChunkFor(t *testing.T) {
	def := DefaultFaultPolicy()
	cases := []struct {
		name       string
		chunkSeeds int
		timeout    time.Duration
		n, slots   int
		want       int
	}{
		{"auto-empty", 0, def.ChunkTimeout, 0, 2, 1},
		{"auto-capped", 0, def.ChunkTimeout, 1 << 20, 2, 60}, // 2 min / 2 s
		{"auto-no-deadline", 0, 0, 1 << 20, 2, maxAutoChunk}, // ChunkTimeout disabled
		{"auto-sub-budget-deadline", 0, time.Second, 1 << 20, 2, 1},
		{"explicit-beyond-run", math.MaxInt, def.ChunkTimeout, 8, 2, 8}, // one lease either way
	}
	for _, c := range cases {
		p := def
		p.ChunkSeeds, p.ChunkTimeout = c.chunkSeeds, c.timeout
		if got := p.chunkFor(c.n, c.slots); got != c.want {
			t.Errorf("%s: chunkFor(%d, %d) = %d, want %d", c.name, c.n, c.slots, got, c.want)
		}
	}
}

// TestShardBoundsSizingKnobs pins the bounds on the sizing knobs: a
// Window, Workers, ChunkSeeds or MaxRetries value too large to allocate
// for used to panic in makechan or exhaust memory before any work ran.
// Window is clamped to MaxWindow, Workers beyond MaxWorkers fails the Run
// with an error, and neither ChunkSeeds nor MaxRetries sizes an
// allocation any more.
func TestShardBoundsSizingKnobs(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		pol     FaultPolicy // Window, ChunkSeeds and MaxRetries override fastPolicy's
		wantErr bool
	}{
		{"window-makechan-overflow", 2, FaultPolicy{Window: 2_000_000_000_000_000_000}, false},
		{"window-out-of-memory", 2, FaultPolicy{Window: 4_000_000_000}, false},
		{"window-at-limit", 2, FaultPolicy{Window: MaxWindow}, false},
		{"chunk-seeds-overflow", 2, FaultPolicy{ChunkSeeds: math.MaxInt}, false},
		{"max-retries-overflow", 2, FaultPolicy{MaxRetries: math.MaxInt}, false},
		{"workers-out-of-memory", 100_000_000_000, FaultPolicy{}, true},
		{"workers-over-limit", MaxWorkers + 1, FaultPolicy{}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sh := chaosShard(c.workers, "", func(p *FaultPolicy) {
				p.Window = cmp.Or(c.pol.Window, p.Window)
				p.ChunkSeeds = c.pol.ChunkSeeds
				p.MaxRetries = cmp.Or(c.pol.MaxRetries, p.MaxRetries)
			})
			defer sh.Close()
			if got := sh.Policy.normalized().Window; got > MaxWindow {
				t.Errorf("normalized Window = %d, want at most %d", got, MaxWindow)
			}
			spec, _ := Lookup("test-shardable")
			err := sh.Run(spec, Seeds(1, 3), func(int, Result) {})
			if c.wantErr {
				if err == nil || !strings.Contains(err.Error(), "workers") {
					t.Errorf("Run error = %v, want one naming the workers limit", err)
				}
			} else if err != nil {
				t.Errorf("Run: %v", err)
			}
		})
	}
}

// TestShardQuarantinedPanicFailsLoudly: when the fleet is dead and the
// quarantined in-process execution itself panics, the run must fail with
// the real error — degradation never papers over an application bug.
func TestShardQuarantinedPanicFailsLoudly(t *testing.T) {
	sh := &Shard{Workers: 1, Argv: []string{os.Args[0], workerExitSentinel}, Policy: fastPolicy()}
	defer sh.Close()
	spec := Spec{Name: "test-quarantine-panic", Desc: "x",
		Run: func(int64) Result { panic("app bug") }}
	_, err := (&Runner{Executor: sh}).Run([]Spec{spec}, []int64{1})
	if err == nil || !strings.Contains(err.Error(), "app bug") {
		t.Errorf("quarantined panic should surface the real error, got %v", err)
	}
}

// syncBuffer is a goroutine-safe writer for capturing worker stderr.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestShardWorkerStderrPrefixed pins the satellite: worker stderr lines
// reach the shard's sink prefixed with the stable slot id.
func TestShardWorkerStderrPrefixed(t *testing.T) {
	var buf syncBuffer
	sh := &Shard{
		Workers: 1,
		Argv:    []string{os.Args[0], workerNoisySentinel},
		Policy:  fastPolicy(),
		Stderr:  &buf,
	}
	spec, _ := Lookup("test-shardable")
	mustRun(t, &Runner{Executor: sh}, []Spec{spec}, Seeds(1, 2))
	sh.Close()

	// The prefix goroutine drains the pipe after the process exits; give it
	// a moment before asserting.
	want := "[w0] noisy diagnostic line\n"
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("worker stderr not prefixed: %q", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBackoffSchedule pins the restart pacing contract: capped
// exponential growth with full jitter on the upper half of the base
// delay, and negative-disables semantics.
func TestBackoffSchedule(t *testing.T) {
	p := FaultPolicy{RestartBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, DegradeToLocal: true}.normalized()
	low := func(n int64) int64 { return 0 }
	high := func(n int64) int64 { return n - 1 }

	cases := []struct {
		consecFails int
		base        time.Duration // expected pre-jitter delay
	}{
		{0, 100 * time.Millisecond}, // clamped like the first failure
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{3, 400 * time.Millisecond},
		{4, 800 * time.Millisecond},
		{5, time.Second},  // 1600ms capped by MaxBackoff
		{40, time.Second}, // shift clamp keeps huge counts from overflowing
	}
	for _, c := range cases {
		min, max := c.base/2, c.base
		if got := p.backoffDelay(c.consecFails, low); got != min {
			t.Errorf("fails=%d jitter floor: got %v, want %v", c.consecFails, got, min)
		}
		if got := p.backoffDelay(c.consecFails, high); got != max {
			t.Errorf("fails=%d jitter ceiling: got %v, want %v", c.consecFails, got, max)
		}
	}

	// The jitter draw spans exactly the upper half: rnd is asked for
	// [0, base/2] inclusive.
	var asked int64
	p.backoffDelay(3, func(n int64) int64 { asked = n; return 0 })
	if want := int64(200*time.Millisecond) + 1; asked != want {
		t.Errorf("jitter range = %d, want %d", asked, want)
	}

	// Negative disables (via normalized), and a never-normalized zero stays
	// zero — no jitter draw happens at all.
	off := FaultPolicy{RestartBackoff: -1, DegradeToLocal: true}.normalized()
	if got := off.backoffDelay(5, func(int64) int64 { t.Fatal("disabled backoff drew jitter"); return 0 }); got != 0 {
		t.Errorf("disabled backoff = %v, want 0", got)
	}
}

// TestShardDegradeSummaryLine pins the satellite: a fleet dead enough to
// quarantine chunks must say so once on the shard's stderr sink, and the
// count must land in health.
func TestShardDegradeSummaryLine(t *testing.T) {
	var buf syncBuffer
	sh := &Shard{
		Workers: 1,
		Argv:    []string{os.Args[0], workerExitSentinel},
		Policy:  fastPolicy(),
		Stderr:  &buf,
	}
	defer sh.Close()
	spec, _ := Lookup("test-shardable")
	mustRun(t, &Runner{Executor: sh}, []Spec{spec}, Seeds(1, 3))
	if want := "shard: 3 chunks degraded to local"; !strings.Contains(buf.String(), want) {
		t.Errorf("degrade summary line missing: want %q in %q", want, buf.String())
	}
	if h := sh.Health(); h.Quarantined != 3 || h.DegradedSeeds != 3 {
		t.Errorf("degrade counters: %s", h.Summary())
	}
}

// TestCacheCountsWriteErrors pins the cache write-error counter: an
// unwritable cache directory costs future hits, never correctness, and the
// failure is visible in the stats.
func TestCacheCountsWriteErrors(t *testing.T) {
	dir := t.TempDir()
	c := &Cache{Inner: &Local{Parallel: 2}, Dir: dir}
	spec := syntheticSpec("test-cache-write-errs", nil)
	seeds := Seeds(1, 3)

	// Pre-create each entry path as a directory: load treats it as a miss
	// (unreadable) and store's rename onto a directory fails — so every
	// store fails while every Result still flows. Works at any uid, unlike
	// chmod tricks.
	for _, seed := range seeds {
		if err := os.MkdirAll(diskStore{root: dir}.path(entryRel(spec, seed)), 0o755); err != nil {
			t.Fatal(err)
		}
	}

	aggs := mustRun(t, &Runner{Executor: c}, []Spec{spec}, seeds)
	if len(aggs) != 1 || aggs[0].Metrics[0].N != len(seeds) {
		t.Fatalf("run incomplete despite write errors: %+v", aggs)
	}
	s := c.Stats()
	if s.WriteErrs != int64(len(seeds)) || s.Misses != int64(len(seeds)) || s.Hits != 0 {
		t.Errorf("stats = %+v, want %d write errors / misses", s, len(seeds))
	}
	if !strings.Contains(s.String(), "3 write errors") {
		t.Errorf("stats line should carry write errors: %s", s)
	}
}

// active reports whether any fault is configured.
func (c Chaos) active() bool {
	return c.CrashAfter > 0 || c.HangAfter > 0 || c.CorruptAfter > 0 ||
		c.TruncateAfter > 0 || c.DelayEvery > 0 ||
		c.DropConnAfter > 0 || c.BlackholeAfter > 0 || c.SlowLink > 0 || c.ReplayAfter > 0
}
