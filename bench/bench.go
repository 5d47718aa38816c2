package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/scenario"
)

// parallel is the Local pool size, the shard worker slot count and the TCP
// connection count: the load one process generates on a two-CPU host.
const parallel = 2

// goldenPath is the seed-1 golden of internal/exp, relative to the
// repository root the benchmark runs from. It is read, never copied.
const goldenPath = "internal/exp/testdata/golden_seed1.json"

// The job matrices. They are constants so that two commits measured with
// this benchmark do identical work; only the round count follows -seconds.
var (
	// paperSpecs is the catalogue that reproduces the paper: Figures 1–2,
	// the survey experiments E3–E17 and the Hotspot ablations.
	paperSpecs = []string{"fig1", "fig2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
		"e11", "e12", "e13", "e14", "e15", "e16", "e17", "ablation-burst", "ablation-iface", "ablation-margin"}
	// metroSpecs is the 10⁴–10⁵-station metro family with closed forms.
	metroSpecs = []string{"e18", "e19", "e20"}
)

// workload is one job matrix and the executors it runs on. README.md says
// why each was chosen.
//
// A round runs the matrix in blocks of seeds, one Runner pass per block,
// and the host is calibrated after each block (host.go). The blocks keep a
// pass short next to how fast the host's speed changes; the seeds of all
// blocks together keep the cost of a round from depending on which seeds
// -seed picked, since one job of a spec can cost 2.5 times another.
type workload struct {
	name   string
	specs  []string
	seeds  int  // seeds per spec per round
	block  int  // seeds per Runner pass
	fabric bool // rounds run the matrix over both shard transports instead of Local
}

var workloads = []workload{
	{name: "catalogue", specs: paperSpecs, seeds: 32, block: 4},
	{name: "dense-mac", specs: []string{"e3", "e4", "e5"}, seeds: 128, block: 32},
	{name: "metro-scale", specs: metroSpecs, seeds: 16, block: 2},
	{name: "sweep-fabric", specs: []string{"fig1", "e15"}, seeds: 2048, block: 1024, fabric: true},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sets how much repetition a run does beyond the matrix itself.
type scale struct {
	seeds        int           // seeds per spec, and per block, when > 0, overriding the workload's
	minRounds    int           // timed rounds run even when -seconds is already spent
	setups       int           // set-ups per timed run, at least; setup_s is their median
	setupTime    time.Duration // further set-ups run until this long after the program started
	tracedRounds int           // traced run: rounds with tracing off, and as many with it on
	layerReps    int           // repetitions of the Runner fold and codec passes
	kernelOps    int           // operations per kernel microbenchmark repetition
	kernelReps   int           // repetitions per kernel microbenchmark
	expSeeds     int           // serial jobs per spec in the exp layer
	probeReps    int           // repetitions of each probe
	metroProbe   string        // the metro spec whose configuration the probe rebuilds
}

var (
	fullScale = scale{minRounds: 3, setups: 9, setupTime: 2 * time.Second, tracedRounds: 1, layerReps: 9,
		kernelOps: 1 << 18, kernelReps: 5, expSeeds: 3, probeReps: 3, metroProbe: "e20"}
	// reducedScale is the smoke tests' scale: every code path once, on the
	// cheapest inputs that still check something.
	reducedScale = scale{seeds: 1, minRounds: 1, setups: 1, tracedRounds: 1, layerReps: 1,
		kernelOps: 1 << 10, kernelReps: 1, expSeeds: 1, probeReps: 1, metroProbe: "e18"}
)

// bench is one run in progress.
type bench struct {
	cfg    config
	w      workload
	sc     scale
	golden map[string]map[string]float64
	specs  []scenario.Spec
	seeds  []int64   // every seed of a round
	blocks [][]int64 // seeds split into the round's Runner passes
	exe    string    // this binary, re-executed as shard worker and TCP server
	tr     tracer
	chk    checks

	refs     map[[2]int64]uint64 // aggregate digest every pass over a seed block (first seed, count) must match
	modelErr float64             // largest closed-form error of a round's seed means, in percent
}

func newBench(cfg config, w workload) (*bench, error) {
	b := &bench{cfg: cfg, w: w, sc: fullScale, refs: map[[2]int64]uint64{}}
	if cfg.reduced {
		b.sc = reducedScale
	}
	for _, name := range w.specs {
		s, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("spec %q is not registered", name)
		}
		b.specs = append(b.specs, s)
	}
	n, block := w.seeds, w.block
	if b.sc.seeds > 0 {
		n, block = b.sc.seeds, b.sc.seeds
	}
	b.seeds = scenario.Seeds(cfg.seed, n)
	for i := 0; i < n; i += block {
		b.blocks = append(b.blocks, b.seeds[i:min(i+block, n)])
	}
	var err error
	if b.golden, err = loadGolden(goldenPath); err != nil {
		return nil, err
	}
	if b.exe, err = os.Executable(); err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	return b, nil
}

// jobs is the number of (spec, seed) jobs in a pass over seeds.
func (b *bench) jobs(seeds []int64) int { return len(b.specs) * len(seeds) }

// loadGolden reads the seed-1 golden: experiment name → Values.
func loadGolden(path string) (map[string]map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read golden (run from the repository root): %w", err)
	}
	var docs []struct {
		Experiment string             `json:"experiment"`
		Values     map[string]float64 `json:"values"`
	}
	if err := json.Unmarshal(data, &docs); err != nil {
		return nil, fmt.Errorf("parse golden %s: %w", path, err)
	}
	out := make(map[string]map[string]float64, len(docs))
	for _, d := range docs {
		out[d.Experiment] = d.Values
	}
	return out, nil
}

// leg is one executor a pass over the matrix can run on.
type leg struct {
	name string // "local", "subproc" or "tcp"
	exec scenario.Executor
}

// fleet holds the executors of one set-up. The shard transports exist only
// when the run needs them.
type fleet struct {
	local   *scenario.Local
	subproc *scenario.Shard
	tcp     *scenario.Shard
	serve   *serveChild
}

func (f *fleet) legs() []leg {
	out := []leg{{"local", f.local}}
	if f.subproc != nil {
		out = append(out, leg{"subproc", f.subproc}, leg{"tcp", f.tcp})
	}
	return out
}

// close shuts the shard workers down and reaps them and the TCP server
// child. It may be called more than once.
func (f *fleet) close() {
	if f.subproc != nil {
		f.subproc.Close()
		f.tcp.Close()
	}
	if f.serve != nil {
		f.serve.stop()
		f.serve = nil
	}
}

// shardFailures sums the failed lease attempts and the seeds degraded to
// in-process execution over both transports.
func (f *fleet) shardFailures() int {
	n := 0
	for _, sh := range []*scenario.Shard{f.subproc, f.tcp} {
		if sh != nil {
			h := sh.Health()
			n += int(h.Failures() + h.DegradedSeeds)
		}
	}
	return n
}

// setup builds the executors, starts the shard fleets when asked (two
// subprocess workers, and two TCP connections to one "-serve" child), and
// warms every executor up with one job per spec on seed 1, checked against
// the golden. It returns with every worker spawned and every connection
// dialed.
func (b *bench) setup(shards bool) (*fleet, error) {
	f := &fleet{local: &scenario.Local{Parallel: parallel}}
	if shards {
		serve, err := startServe(b.exe)
		if err != nil {
			return nil, err
		}
		f.serve = serve
		f.subproc = &scenario.Shard{Workers: parallel, Argv: []string{b.exe, "-worker"}}
		f.tcp = &scenario.Shard{Workers: parallel, Addrs: []string{serve.addr}}
	}
	for _, l := range f.legs() {
		if err := b.warm(l); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// warm runs one job per spec on seed 1 over l and checks it against the
// golden. A Shard opens its worker sessions lazily, one per slot that
// takes a lease, so on a Shard it repeats seed-1 jobs until every slot has
// completed one.
func (b *bench) warm(l leg) error {
	one := []int64{1}
	aggs, err := (&scenario.Runner{Executor: l.exec, KeepPerSeed: true}).Run(b.specs, one)
	if err != nil {
		return fmt.Errorf("warm-up on %s: %w", l.name, err)
	}
	b.checkGolden(aggs)
	sh, ok := l.exec.(*scenario.Shard)
	if !ok {
		return nil
	}
	batch := []int64{1, 1, 1, 1, 1, 1, 1, 1} // more leases than the slots' pipelining windows hold
	for try := 0; !allSlotsUp(sh); try++ {
		if try == 10 {
			return fmt.Errorf("warm-up on %s: a worker slot never took a lease", l.name)
		}
		aggs, err := (&scenario.Runner{Executor: sh, KeepPerSeed: true}).Run(b.specs[:1], batch)
		if err != nil {
			return fmt.Errorf("warm-up on %s: %w", l.name, err)
		}
		b.checkGolden(aggs)
	}
	return nil
}

func allSlotsUp(sh *scenario.Shard) bool {
	h := sh.Health()
	for _, w := range h.Workers {
		if w.Chunks == 0 {
			return false
		}
	}
	return len(h.Workers) == parallel
}

// checkGolden checks seed-1 Results against the golden, bit for bit.
func (b *bench) checkGolden(aggs []scenario.AggResult) {
	for _, a := range aggs {
		for _, res := range a.PerSeed {
			b.chk.attempted++
			if !sameBits(res.Values, b.golden[a.Spec.Name]) {
				b.chk.fail(1, "%s seed 1 differs from the golden", a.Spec.Name)
			}
		}
	}
}

// sameBits reports whether two value sets hold the same keys with
// bit-identical values.
func sameBits(got, want map[string]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// digest hashes the Float64bits of every aggregated metric, so two passes
// over the same matrix agree only if every output bit does.
func digest(aggs []scenario.AggResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, a := range aggs {
		h.Write([]byte(a.Spec.Name))
		for _, m := range a.Metrics {
			h.Write([]byte(m.Name))
			for _, v := range []float64{m.Mean, m.CI95, m.Min, m.Max, float64(m.N)} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// modelErrPct is the largest |simX − modelX| / modelX, in percent, over a
// closed-form spec's sim/model value pairs, with the spec's tolerance.
func modelErrPct(v map[string]float64) (errPct, tolPct float64) {
	for k, simV := range v {
		rest, ok := strings.CutPrefix(k, "sim")
		if !ok {
			continue
		}
		if modV, ok := v["model"+rest]; ok {
			errPct = max(errPct, math.Abs(simV-modV)/math.Abs(modV)*100)
		}
	}
	return errPct, v["tolPct"]
}

// seedMeans averages a closed-form spec's Values over seeds. The closed
// form is an expectation, so it is checked against the mean over many
// seeds: a single seed strays past the tolerance now and then (e19: 1 in
// the 300 seeds 1–300, at 7.5% against 7%).
type seedMeans struct{ sum, n map[string]float64 }

func (m *seedMeans) add(name string, mean float64, n int) {
	if m.sum == nil {
		m.sum, m.n = map[string]float64{}, map[string]float64{}
	}
	m.sum[name] += mean * float64(n)
	m.n[name] += float64(n)
}

func (m *seedMeans) means() map[string]float64 {
	out := make(map[string]float64, len(m.sum))
	for k, s := range m.sum {
		out[k] = s / m.n[k]
	}
	return out
}

// checkModel checks a closed-form spec's seed means against its tolerance,
// counting a miss as jobs failed jobs, and returns the error.
func (b *bench) checkModel(name string, m *seedMeans, jobs int) float64 {
	e, tol := modelErrPct(m.means())
	if !(e <= tol) {
		b.chk.fail(jobs, "%s: closed-form error %.3g%% of the seed means exceeds the %.3g%% tolerance", name, e, tol)
	}
	return e
}

// timed is the untraced run: set up several times (for a steady setup_s;
// more often where a set-up is short and its jitter large), then run whole
// rounds of the matrix while -seconds last, checking each pass's outputs.
// It reports the end-to-end metrics, every time scaled to the reference
// host speed (host.go).
func (b *bench) timed(ctx context.Context, start time.Time) (*report, error) {
	cal := newCalibrator()
	var setupS, rawSetupS, slows []float64
	var f *fleet
	var kids0 time.Duration // CPU of the children reaped before the kept fleet
	for {
		t0 := time.Now()
		if len(setupS) == 0 {
			t0 = start
		}
		kids0 = cpuTime(syscall.RUSAGE_CHILDREN)
		nf, err := b.setup(b.w.fabric)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		slow := cal.slowdown()
		rawSetupS = append(rawSetupS, d)
		setupS = append(setupS, d/slow)
		if len(setupS) >= b.sc.setups && time.Since(start) >= b.sc.setupTime {
			f = nf
			slows = append(slows, slow)
			break
		}
		b.chk.failed += nf.shardFailures()
		nf.close()
		cal.mark()
	}
	defer f.close()

	if b.w.fabric {
		// The reference digests come from an untimed Local pass, so each
		// transport is checked against the in-process backend.
		for _, blk := range b.blocks {
			if _, err := b.pass(f.local, blk, false, 0, -1, "local reference pass"); err != nil {
				return nil, err
			}
		}
	}
	execs := b.roundExecs(f)
	var jobsPerS, cpuMS, rssMB, rawJobsPerS, rawCPUMS []float64
	timedJobs := 0
	budget := time.Duration(b.cfg.seconds) * time.Second
	var last time.Duration // the latest round's length
	cal.mark()
	t0 := time.Now()
	// A round starts only if it is expected to end within -seconds.
	for r := 0; r < b.sc.minRounds || time.Since(t0)+last <= budget; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		r0 := time.Now()
		rt, err := b.round(execs, cal, 0, r)
		if err != nil {
			return nil, err
		}
		self, child, err := peakRSS()
		if err != nil {
			return nil, err
		}
		last = time.Since(r0)
		timedJobs += rt.jobs
		slows = append(slows, rt.slows...)
		jobsPerS = append(jobsPerS, float64(rt.jobs)/rt.wallRef)
		cpuMS = append(cpuMS, rt.cpuRef*1e3/float64(rt.jobs))
		rawJobsPerS = append(rawJobsPerS, float64(rt.jobs)/rt.wall.Seconds())
		rawCPUMS = append(rawCPUMS, float64(rt.cpu.Nanoseconds())/1e6/float64(rt.jobs))
		rssMB = append(rssMB, float64(self+child)/(1<<20))
	}

	b.chk.failed += f.shardFailures()
	f.close()
	// Worker children are reaped by close: their CPU is known only now, and
	// is spread evenly over the timed jobs, at the fleet's median slowdown.
	kidsMS := float64((cpuTime(syscall.RUSAGE_CHILDREN) - kids0).Nanoseconds()) / 1e6 / float64(timedJobs)
	for i := range cpuMS {
		cpuMS[i] += kidsMS / median(slows)
		rawCPUMS[i] += kidsMS
	}

	rep := &report{}
	rep.add("setup_s", "s", setupS...)
	rep.add("jobs_per_s", "jobs/s", jobsPerS...)
	rep.add("cpu_ms_per_job", "ms", cpuMS...)
	rep.add("peak_rss_mb", "MB", rssMB...)
	rep.info = append(rep.info,
		fmt.Sprintf("host: reference kernel %.4g ns/op (median of %d calibrations), program slowdown %.4g",
			median(cal.costs), len(cal.costs), median(slows)),
		fmt.Sprintf("unscaled medians: setup_s %.6g, jobs_per_s %.6g, cpu_ms_per_job %.6g", median(rawSetupS), median(rawJobsPerS), median(rawCPUMS)))
	if slices.ContainsFunc(b.specs, func(s scenario.Spec) bool { return s.HasTag("analytic") }) {
		rep.info = append(rep.info, fmt.Sprintf("model_err_pct %.6g (largest closed-form error of a round's seed means)", b.modelErr))
	}
	return rep, nil
}

// roundTimes is what one round took: its jobs, its wall and CPU time both
// as measured and scaled to the reference host speed, and the slowdown
// measured after each of its blocks.
type roundTimes struct {
	jobs            int
	wall, cpu       time.Duration
	wallRef, cpuRef float64 // seconds at the reference speed
	slows           []float64
}

// round runs every seed block of the matrix once on each of execs,
// recording the passes as spans under parent, and calibrates the host after
// each block, which the calibration before it (cal.mark or the previous
// block's) and after it bracket. The CPU time is this process's only. It
// checks the closed-form specs on their means over the round's seeds.
func (b *bench) round(execs []scenario.Executor, cal *calibrator, parent, r int) (roundTimes, error) {
	var rt roundTimes
	closed := map[string]*seedMeans{}
	for _, blk := range b.blocks {
		self0 := cpuTime(syscall.RUSAGE_SELF)
		w0 := time.Now()
		for _, e := range execs {
			aggs, err := b.pass(e, blk, false, parent, r, fmt.Sprintf("round %d", r))
			if err != nil {
				return rt, err
			}
			for _, a := range aggs {
				if !a.Spec.HasTag("analytic") {
					continue
				}
				if closed[a.Spec.Name] == nil {
					closed[a.Spec.Name] = &seedMeans{}
				}
				for _, m := range a.Metrics {
					closed[a.Spec.Name].add(m.Name, m.Mean, m.N)
				}
			}
		}
		wall := time.Since(w0)
		cpu := cpuTime(syscall.RUSAGE_SELF) - self0
		slow := cal.slowdown()
		rt.jobs += len(execs) * b.jobs(blk)
		rt.wall += wall
		rt.cpu += cpu
		rt.wallRef += wall.Seconds() / slow
		rt.cpuRef += cpu.Seconds() / slow
		rt.slows = append(rt.slows, slow)
	}
	for name, m := range closed {
		b.modelErr = max(b.modelErr, b.checkModel(name, m, len(execs)*len(b.seeds)))
	}
	return rt, nil
}
