package scenario

import (
	"bytes"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServeWorkerProtocol drives the worker loop over in-memory pipes —
// no subprocess — checking the hello handshake, chunk-request framing
// with per-seed streamed responses, registry and builder resolution
// (good params, params the builder rejects, params for a name with no
// builder, an unknown name) and panic conversion.
func TestServeWorkerProtocol(t *testing.T) {
	var in, out bytes.Buffer
	var fs frameScratch
	in.Write(fs.requestFrame("test-param", "k=2", []int64{4, 6}, 41)) // one chunk, two seeds
	in.Write(fs.requestFrame("test-shardable", "", []int64{13}, 42))
	in.Write(fs.requestFrame("test-no-such-spec", "", []int64{1}, 43))
	in.Write(fs.requestFrame("test-param", "k=2", []int64{99}, 44))
	in.Write(fs.requestFrame("test-param", "k=two", []int64{5}, 45))
	in.Write(fs.requestFrame("test-shardable", "k=2", []int64{5}, 46))
	in.Write(fs.requestFrame("test-param", "k=3", []int64{4}, 47))
	if err := ServeWorker(&in, &out); err != nil {
		t.Fatal(err)
	}

	var buf []byte
	read := func() wireMsg {
		t.Helper()
		p, err := readRawFrame(&out, &buf)
		if err != nil {
			t.Fatal(err)
		}
		m, err := parseWireMsg(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := read(); m.ftype != frameHello || m.version != protoVersion {
		t.Fatalf("first frame = %+v, want hello v%d", m, protoVersion)
	}
	readResult := func(spec string, seed, epoch int64) Result {
		t.Helper()
		m := read()
		if m.ftype != frameResult || string(m.spec) != spec || m.seed != seed || m.epoch != epoch {
			t.Fatalf("frame = %+v, want result for %s seed %d epoch %d", m, spec, seed, epoch)
		}
		res, err := DecodeResult(m.result)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := readResult("test-param", 4, 41); res.Values["v"] != 8 {
		t.Errorf("built spec k=2 seed 4: %+v", res)
	}
	if res := readResult("test-param", 6, 41); res.Values["v"] != 12 {
		t.Errorf("built spec k=2 seed 6 (same chunk): %+v", res)
	}
	if res := readResult("test-shardable", 13, 42); !math.IsNaN(res.Values["nan"]) {
		t.Errorf("registry spec seed 13: %+v", res)
	}
	readError := func(epoch int64, want ...string) {
		t.Helper()
		m := read()
		if m.ftype != frameError || m.epoch != epoch {
			t.Fatalf("frame = %+v, want an error frame for epoch %d", m, epoch)
		}
		for _, w := range want {
			if !strings.Contains(string(m.errMsg), w) {
				t.Errorf("epoch %d error %q does not name %q", epoch, m.errMsg, w)
			}
		}
	}
	readError(43, `"test-no-such-spec"`)
	readError(44, "boom")
	readError(45, `"test-param"`, `"k=two"`)
	readError(46, `"test-shardable"`, `"k=2"`)
	if res := readResult("test-param", 4, 47); res.Values["v"] != 12 {
		t.Errorf("built spec k=3 seed 4, after k=2 in the same session: %+v", res)
	}
	if _, err := readRawFrame(&out, &buf); err != io.EOF {
		t.Errorf("worker wrote extra frames: %v", err)
	}
}

// writeLog is a worker transport that serves requests from in and keeps
// every Write as its own record, so tests can count writes and check
// where each one starts and ends.
type writeLog struct {
	in     io.Reader
	mu     sync.Mutex // the heartbeat goroutine may write after serve returns
	writes [][]byte
}

func (w *writeLog) Read(p []byte) (int, error) { return w.in.Read(p) }

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// frames splits every recorded Write into protocol frames, failing the
// test unless each Write holds whole frames only.
func (w *writeLog) frames(t *testing.T) [][]wireMsg {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([][]wireMsg, len(w.writes))
	for i, b := range w.writes {
		r := bytes.NewReader(b)
		for {
			var buf []byte // fresh per frame: each wireMsg aliases its buffer
			p, err := readRawFrame(r, &buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("write %d does not split into whole frames: %v", i, err)
			}
			m, err := parseWireMsg(p)
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			out[i] = append(out[i], m)
		}
	}
	return out
}

// TestServeCoalescesChunkResponses pins the worker's write path: a chunk's
// response frames leave in one Write after its last seed, and a heartbeat
// that fires mid-chunk writes the frames answered so far ahead of itself,
// so every Write holds whole frames and the responses keep seed order.
func TestServeCoalescesChunkResponses(t *testing.T) {
	seeds := Seeds(1, 16)
	var fs frameScratch
	t.Run("one-write-per-chunk", func(t *testing.T) {
		w := &writeLog{in: bytes.NewReader(fs.requestFrame("test-shardable", "", seeds, 7))}
		if err := (session{log: io.Discard}).serve(w); err != nil {
			t.Fatal(err)
		}
		writes := w.frames(t)
		if len(writes) != 2 || len(writes[0]) != 1 || writes[0][0].ftype != frameHello {
			t.Fatalf("got %d writes, want the hello plus one response write", len(writes))
		}
		if len(writes[1]) != len(seeds) {
			t.Fatalf("response write holds %d frames, want %d", len(writes[1]), len(seeds))
		}
		for i, m := range writes[1] {
			if m.ftype != frameResult || m.seed != seeds[i] || m.epoch != 7 {
				t.Errorf("frame %d = %+v, want the result for seed %d", i, m, seeds[i])
			}
		}
	})
	t.Run("heartbeats-between-frames", func(t *testing.T) {
		w := &writeLog{in: bytes.NewReader(fs.requestFrame("test-param", "k=1 sleep-ms=3", seeds, 8))}
		s := session{heartbeat: time.Millisecond, log: io.Discard}
		if err := s.serve(w); err != nil {
			t.Fatal(err)
		}
		writes := w.frames(t)
		var got []int64
		beats, resultWrites := 0, 0
		for _, frames := range writes[1:] {
			carries := false
			for _, m := range frames {
				switch m.ftype {
				case frameHeartbeat:
					beats++
				case frameResult:
					got = append(got, m.seed)
					carries = true
				default:
					t.Fatalf("unexpected frame %+v", m)
				}
			}
			if carries {
				resultWrites++
			}
		}
		if !slices.Equal(got, seeds) {
			t.Errorf("responses arrived for seeds %v, want %v", got, seeds)
		}
		// One request, so responses split across writes only where a
		// heartbeat flushed them early.
		if beats == 0 || resultWrites < 2 {
			t.Errorf("%d heartbeats, responses in %d writes: no heartbeat fired mid-chunk, the test is vacuous",
				beats, resultWrites)
		}
	})
}

// shardForTest returns a Shard whose workers are this test binary serving
// ServeWorker (see TestMain), with restart pacing tightened so failure
// tests spend milliseconds, not the production backoff, between retries.
func shardForTest(workers int) *Shard {
	return &Shard{
		Workers: workers,
		Argv:    []string{os.Args[0], workerSentinel},
		Policy:  fastPolicy(),
	}
}

// fastPolicy is the production default with test-speed restart pacing.
func fastPolicy() FaultPolicy {
	p := DefaultFaultPolicy()
	p.ChunkTimeout = 30 * time.Second
	p.RestartBackoff = time.Millisecond
	p.MaxBackoff = 5 * time.Millisecond
	return p
}

// metricsEqualBits compares metric slices demanding bit-identical floats;
// reflect.DeepEqual would reject identical NaNs.
func metricsEqualBits(a, b []Metric) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].N != b[i].N ||
			math.Float64bits(a[i].Mean) != math.Float64bits(b[i].Mean) ||
			math.Float64bits(a[i].CI95) != math.Float64bits(b[i].CI95) ||
			math.Float64bits(a[i].Min) != math.Float64bits(b[i].Min) ||
			math.Float64bits(a[i].Max) != math.Float64bits(b[i].Max) {
			return false
		}
	}
	return true
}

// TestShardMatchesLocal is the scenario-level equivalence check on a
// registered synthetic spec: the subprocess backend must reproduce the
// Local backend bit-for-bit, per seed and in aggregate, including the
// NaN/Inf seeds the codec exists for.
func TestShardMatchesLocal(t *testing.T) {
	spec, ok := Lookup("test-shardable")
	if !ok {
		t.Fatal("test-shardable not registered")
	}
	seeds := Seeds(10, 8) // includes 13, the NaN seed

	local := mustRun(t, &Runner{Parallel: 4, KeepPerSeed: true}, []Spec{spec}, seeds)
	sh := shardForTest(2)
	defer sh.Close()
	sharded := mustRun(t, &Runner{KeepPerSeed: true, Executor: sh}, []Spec{spec}, seeds)

	a, b := local[0], sharded[0]
	if !metricsEqualBits(a.Metrics, b.Metrics) {
		t.Errorf("metrics diverged:\nlocal %+v\nshard %+v", a.Metrics, b.Metrics)
	}
	for i := range a.PerSeed {
		pa, pb := a.PerSeed[i], b.PerSeed[i]
		if pa.Name != pb.Name || pa.Table != pb.Table {
			t.Errorf("seed %d: name/table diverged", seeds[i])
		}
		if len(pa.Values) != len(pb.Values) {
			t.Fatalf("seed %d: value sets differ", seeds[i])
		}
		for k := range pa.Values {
			if math.Float64bits(pa.Values[k]) != math.Float64bits(pb.Values[k]) {
				t.Errorf("seed %d %s: %#x vs %#x", seeds[i], k,
					math.Float64bits(pa.Values[k]), math.Float64bits(pb.Values[k]))
			}
		}
	}
	if a.Table() != b.Table() {
		t.Error("rendered aggregate tables not byte-identical")
	}
}

// TestShardPoolSharedAcrossSpecs runs several specs concurrently through
// one 2-worker Shard (the Runner fans specs out) — exercising the shared
// job channel under contention.
func TestShardPoolSharedAcrossSpecs(t *testing.T) {
	spec, _ := Lookup("test-shardable")
	// The same registered spec under several concurrent Run calls.
	specs := []Spec{spec, spec, spec}
	sh := shardForTest(2)
	defer sh.Close()
	aggs := mustRun(t, &Runner{Executor: sh}, specs, Seeds(1, 6))
	for i, a := range aggs {
		if len(a.Metrics) == 0 || a.Metrics[len(a.Metrics)-1].N != 6 {
			t.Errorf("spec %d aggregate incomplete: %+v", i, a.Metrics)
		}
	}
}

func TestShardUnknownSpecFails(t *testing.T) {
	sh := shardForTest(1)
	defer sh.Close()
	spec := Spec{Name: "test-not-registered-anywhere", Desc: "x",
		Run: func(int64) Result { return Result{} }}
	_, err := (&Runner{Executor: sh}).Run([]Spec{spec}, []int64{1})
	if err == nil || !strings.Contains(err.Error(), "test-not-registered-anywhere") {
		t.Errorf("unknown spec in worker should fail loudly, got %v", err)
	}
}

// noDegradePolicy exhausts quickly and forbids the in-process fallback, so
// unrecoverable-fleet tests assert the error path rather than the (default)
// graceful degradation.
func noDegradePolicy() FaultPolicy {
	p := fastPolicy()
	p.MaxRetries = 1
	p.DegradeToLocal = false
	return p
}

func TestShardWorkerDeathFailsWithoutDegrade(t *testing.T) {
	sh := &Shard{Workers: 2, Argv: []string{os.Args[0], workerExitSentinel}, Policy: noDegradePolicy()}
	defer sh.Close()
	spec, _ := Lookup("test-shardable")
	_, err := (&Runner{Executor: sh}).Run([]Spec{spec}, Seeds(1, 4))
	if err == nil {
		t.Fatal("dead workers with degradation disabled should fail the run")
	}
	if !strings.Contains(err.Error(), "degrade-to-local disabled") {
		t.Errorf("error should name the exhausted path, got %v", err)
	}
}

// TestShardWorkerDeathDegradesToLocal is the graceful-degradation
// guarantee: a fleet whose every process dies instantly still completes
// the run bit-identically via quarantined in-process execution.
func TestShardWorkerDeathDegradesToLocal(t *testing.T) {
	sh := &Shard{Workers: 2, Argv: []string{os.Args[0], workerExitSentinel}, Policy: fastPolicy()}
	defer sh.Close()
	spec, _ := Lookup("test-shardable")
	seeds := Seeds(10, 6) // includes 13, the NaN seed

	local := mustRun(t, &Runner{Parallel: 4, KeepPerSeed: true}, []Spec{spec}, seeds)
	degraded := mustRun(t, &Runner{KeepPerSeed: true, Executor: sh}, []Spec{spec}, seeds)
	if !metricsEqualBits(local[0].Metrics, degraded[0].Metrics) {
		t.Errorf("degraded metrics diverged:\nlocal %+v\ndegraded %+v", local[0].Metrics, degraded[0].Metrics)
	}

	h := sh.Health()
	if h.DegradedSeeds != int64(len(seeds)) {
		t.Errorf("DegradedSeeds = %d, want %d (every seed quarantined)", h.DegradedSeeds, len(seeds))
	}
	if h.Quarantined == 0 || h.Retries == 0 || h.Failures() == 0 {
		t.Errorf("health should record the failure storm: %s", h)
	}
}

func TestShardBadBinaryFailsWithoutDegrade(t *testing.T) {
	sh := &Shard{Workers: 1, Argv: []string{"/no/such/binary/exists"}, Policy: noDegradePolicy()}
	defer sh.Close()
	spec, _ := Lookup("test-shardable")
	if _, err := (&Runner{Executor: sh}).Run([]Spec{spec}, []int64{1}); err == nil {
		t.Fatal("unstartable worker binary with degradation disabled should fail the run")
	}
}

func TestShardBadBinaryDegradesToLocal(t *testing.T) {
	sh := &Shard{Workers: 1, Argv: []string{"/no/such/binary/exists"}, Policy: fastPolicy()}
	defer sh.Close()
	spec, _ := Lookup("test-shardable")
	aggs := mustRun(t, &Runner{Executor: sh}, []Spec{spec}, Seeds(1, 3))
	if len(aggs) != 1 || aggs[0].Metrics[len(aggs[0].Metrics)-1].N != 3 {
		t.Errorf("degraded run incomplete: %+v", aggs)
	}
	if h := sh.Health(); h.DegradedSeeds != 3 {
		t.Errorf("DegradedSeeds = %d, want 3", h.DegradedSeeds)
	}
}
