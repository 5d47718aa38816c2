package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/frame"
	"repro/internal/mac/dcf"
	"repro/internal/mac/metro"
	"repro/internal/mac/psm"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// traced is the separate traced run. It sets up once with both shard
// fleets, runs the workload's rounds alternately untraced and traced, then
// measures each layer from outside: the shard transports against Local,
// the Runner fold, the codec, each spec's job cost, the kernel
// microbenchmarks, and two probes that rebuild e5's CAM leg and a metro
// configuration from public calls and must reproduce their specs bit for
// bit. Every call it times is recorded as a span, written out at the end.
func (b *bench) traced(ctx context.Context, start time.Time) (*report, error) {
	b.tr = tracer{on: true, t0: start}
	id := b.tr.begin(0, "setup", -1)
	f, err := b.setup(true)
	b.tr.end(id, 1)
	if err != nil {
		return nil, err
	}
	defer f.close()

	rep := &report{}
	if err := b.rounds(ctx, f, rep); err != nil {
		return nil, err
	}
	rec, err := b.shardLayer(f, rep)
	if err != nil {
		return nil, err
	}
	if err := b.runnerLayer(rec, rep); err != nil {
		return nil, err
	}
	if err := b.codecLayer(rec, rep); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results, err := b.expLayer(rep)
	if err != nil {
		return nil, err
	}
	b.kernelLayer(rep)
	if err := b.dcfProbe(results, rep); err != nil {
		return nil, err
	}
	if err := b.metroProbe(results, rep); err != nil {
		return nil, err
	}

	b.chk.failed += f.shardFailures()
	f.close()
	rep.add("fail_frac", "ratio", float64(b.chk.failed)/float64(b.chk.attempted))
	if err := b.tr.write(b.cfg.spans, b.w.name, b.cfg.seed); err != nil {
		return nil, err
	}
	rep.info = append(rep.info, fmt.Sprintf("spans: %d written to %s", len(b.tr.spans), b.cfg.spans))
	return rep, nil
}

// roundExecs are the executors one round runs the matrix on.
func (b *bench) roundExecs(f *fleet) []scenario.Executor {
	if b.w.fabric {
		return []scenario.Executor{f.subproc, f.tcp}
	}
	return []scenario.Executor{f.local}
}

// pass runs the matrix on seeds once on e through a Runner, recording a
// span under parent, and checks the aggregate digest against the run's
// reference for those seeds (the first pass over them sets it).
func (b *bench) pass(e scenario.Executor, seeds []int64, keep bool, parent, round int, what string) ([]scenario.AggResult, error) {
	id := b.tr.begin(parent, "Runner.Run", round)
	aggs, err := (&scenario.Runner{Executor: e, KeepPerSeed: keep}).Run(b.specs, seeds)
	b.tr.end(id, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	n := b.jobs(seeds)
	b.chk.attempted += n
	key := [2]int64{seeds[0], int64(len(seeds))}
	if ref, ok := b.refs[key]; !ok {
		b.refs[key] = digest(aggs)
	} else if digest(aggs) != ref {
		b.chk.fail(n, "%s: aggregate digest differs from the reference", what)
	}
	return aggs, nil
}

// runtimeNames are the runtime/metrics counters the traced rounds read.
// The CPU classes are the runtime's own estimate, updated at the end of
// each GC cycle.
var runtimeNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeNames))
	for i := range s {
		s[i].Name = runtimeNames[i]
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

// rounds runs the workload's round 2·tracedRounds times, alternating
// tracing off and on, for trace.overhead_pct (self CPU per job at the
// reference host speed, on versus off), the runtime layer (allocation and
// GC over the traced rounds) and the host's speed while they ran.
func (b *bench) rounds(ctx context.Context, f *fleet, rep *report) error {
	execs := b.roundExecs(f)
	cal := newCalibrator()
	cal.mark()
	var off, on []float64
	var rt [3]float64
	var cpuOn time.Duration
	jobsOn := 0
	for r := range 2 * b.sc.tracedRounds {
		if err := ctx.Err(); err != nil {
			return err
		}
		b.tr.on = r%2 == 1
		rt0 := readRuntime()
		id := b.tr.begin(0, "round", r)
		times, err := b.round(execs, cal, id, r)
		b.tr.end(id, 1)
		if err != nil {
			return err
		}
		rt1 := readRuntime()
		perJob := times.cpuRef * 1e3 / float64(times.jobs)
		if !b.tr.on {
			off = append(off, perJob)
			continue
		}
		on = append(on, perJob)
		for i := range rt {
			rt[i] += rt1[i] - rt0[i]
		}
		cpuOn += times.cpu
		jobsOn += times.jobs
	}
	b.tr.on = true
	if median(off) == 0 || cpuOn == 0 {
		return fmt.Errorf("traced rounds used no measurable CPU")
	}
	rep.add("host.ref_ns_per_op", "ns", cal.costs...)
	rep.add("trace.overhead_pct", "%", (median(on)/median(off)-1)*100)
	rep.add("runtime.alloc_kb_per_job", "KB", rt[0]/1024/float64(jobsOn))
	rep.add("runtime.gc_cycles_per_job", "count", rt[1]/float64(jobsOn))
	rep.add("runtime.gc_cpu_frac", "ratio", rt[2]/cpuOn.Seconds())
	return nil
}

// shardLayer runs the matrix once on each leg — Local, then the subprocess
// and TCP transports — checks that all three agree, and reports each
// transport's cost over Local and its supervision counters. It returns
// the Local leg's per-seed Results for the replay layers.
func (b *bench) shardLayer(f *fleet, rep *report) (replay, error) {
	lid := b.tr.begin(0, "layer.shard", -1)
	defer b.tr.end(lid, 1)
	rec := replay{}
	var localWall time.Duration
	jobs := float64(b.jobs(b.seeds))
	for _, l := range f.legs() {
		sh, _ := l.exec.(*scenario.Shard)
		var h0 scenario.ShardHealth
		if sh != nil {
			h0 = sh.Health()
		}
		t0 := time.Now()
		aggs, err := b.pass(l.exec, b.seeds, true, lid, -1, l.name+" leg")
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if sh == nil {
			localWall = wall
			for _, a := range aggs {
				rec[a.Spec.Name] = a.PerSeed
			}
			continue
		}
		h := sh.Health()
		computed := float64(seedsComputed(h) - seedsComputed(h0))
		useful := 0.0
		if computed > 0 {
			useful = jobs / computed
		}
		p := "shard." + l.name + "."
		rep.add(p+"overhead_us_per_job", "us", float64((wall-localWall).Nanoseconds())/1e3/jobs)
		rep.add(p+"bytes_per_job", "B", float64(h.BytesSent+h.BytesRecv-h0.BytesSent-h0.BytesRecv)/jobs)
		rep.add(p+"useful_ratio", "ratio", useful)
		rep.add(p+"failures", "count", float64(h.Failures()-h0.Failures()))
		rep.add(p+"restarts", "count", float64(h.Restarts()-h0.Restarts()))
		rep.add(p+"stale_drops", "count", float64(h.Stales()+h.StaleReplies-h0.Stales()-h0.StaleReplies))
	}
	return rec, nil
}

// seedsComputed counts the seeds a Shard has computed, on workers or
// degraded to in-process execution.
func seedsComputed(h scenario.ShardHealth) int64 {
	n := h.DegradedSeeds
	for _, w := range h.Workers {
		n += w.Seeds
	}
	return n
}

// replay is an Executor that emits recorded Results instead of running
// anything, so timing a Runner over it isolates the Runner's own fold.
type replay map[string][]scenario.Result

func (r replay) Run(spec scenario.Spec, seeds []int64, emit scenario.Emit) error {
	res := r[spec.Name]
	if len(res) != len(seeds) {
		return fmt.Errorf("replay: %d recorded results for %s, want %d", len(res), spec.Name, len(seeds))
	}
	for i := range res {
		emit(i, res[i])
	}
	return nil
}

// runnerLayer times the Runner folding the recorded Results, replayed by
// an Executor that does no other work, and checks the fold reproduces the
// reference digest.
func (b *bench) runnerLayer(rec replay, rep *report) error {
	if b.cfg.flipBit {
		flipBit(rec, b.specs[0].Name)
	}
	lid := b.tr.begin(0, "layer.runner", -1)
	defer b.tr.end(lid, 1)
	var per []float64
	for r := range b.sc.layerReps {
		t0 := time.Now()
		if _, err := b.pass(rec, b.seeds, false, lid, r, "runner replay"); err != nil {
			return err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3/float64(b.jobs(b.seeds)))
	}
	rep.add("runner.fold_us_per_job", "us", per...)
	return nil
}

// flipBit flips the lowest bit of one recorded value of spec's first
// Result, as a corrupted Result would.
func flipBit(rec replay, spec string) {
	res := rec[spec][0]
	vals := maps.Clone(res.Values)
	k := slices.Sorted(maps.Keys(vals))[0]
	vals[k] = math.Float64frombits(math.Float64bits(vals[k]) ^ 1)
	res.Values = vals
	rec[spec][0] = res
}

// codecLayer times EncodeResult and DecodeResult over the recorded
// Results and checks every round trip is exact.
func (b *bench) codecLayer(rec replay, rep *report) error {
	var all []scenario.Result
	for _, s := range b.specs {
		all = append(all, rec[s.Name]...)
	}
	n := float64(len(all))
	enc := make([][]byte, len(all))
	dec := make([]scenario.Result, len(all))
	decErr := make([]error, len(all))
	lid := b.tr.begin(0, "layer.codec", -1)
	defer b.tr.end(lid, 1)
	var encUS, decUS []float64
	for r := range b.sc.layerReps {
		id := b.tr.begin(lid, "EncodeResult", r)
		t0 := time.Now()
		for i, res := range all {
			data, err := scenario.EncodeResult(res)
			if err != nil {
				return fmt.Errorf("encode %s: %w", res.Name, err)
			}
			enc[i] = data
		}
		encUS = append(encUS, float64(time.Since(t0).Nanoseconds())/1e3/n)
		b.tr.end(id, len(all))
		id = b.tr.begin(lid, "DecodeResult", r)
		t0 = time.Now()
		for i, data := range enc {
			dec[i], decErr[i] = scenario.DecodeResult(data)
		}
		decUS = append(decUS, float64(time.Since(t0).Nanoseconds())/1e3/n)
		b.tr.end(id, len(all))
	}
	bytes := 0
	for i := range all {
		bytes += len(enc[i])
		b.chk.attempted++
		if decErr[i] != nil || dec[i].Name != all[i].Name || dec[i].Table != all[i].Table || !sameBits(dec[i].Values, all[i].Values) {
			b.chk.fail(1, "codec: %s does not round-trip exactly (%v)", all[i].Name, decErr[i])
		}
	}
	rep.add("codec.encode_us_per_job", "us", encUS...)
	rep.add("codec.decode_us_per_job", "us", decUS...)
	rep.add("codec.bytes_per_job", "B", float64(bytes)/n)
	return nil
}

// expLayer runs every spec of every workload one job at a time through
// Spec.Execute, bracketed by runtime.ReadMemStats, for each spec's job
// cost and allocation count. It returns each spec's Result for the first
// seed, which the probes are checked against, and reports the largest
// closed-form error of a spec's means over its jobs.
func (b *bench) expLayer(rep *report) (map[string]scenario.Result, error) {
	lid := b.tr.begin(0, "layer.exp", -1)
	defer b.tr.end(lid, 1)
	first := map[string]scenario.Result{}
	modelErr := 0.0
	for _, name := range slices.Concat(paperSpecs, metroSpecs) {
		spec, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("spec %q is not registered", name)
		}
		sid := b.tr.begin(lid, "exp."+name, -1)
		var jobMS []float64
		var allocs uint64
		var m0, m1 runtime.MemStats
		var closed seedMeans
		for k := range b.sc.expSeeds {
			runtime.ReadMemStats(&m0)
			id := b.tr.begin(sid, "Spec.Execute", k)
			t0 := time.Now()
			res := spec.Execute(b.cfg.seed + int64(k))
			d := time.Since(t0)
			b.tr.end(id, 1)
			runtime.ReadMemStats(&m1)
			jobMS = append(jobMS, float64(d.Nanoseconds())/1e6)
			allocs += m1.Mallocs - m0.Mallocs
			if k == 0 {
				first[name] = res
			}
			if spec.HasTag("analytic") {
				for key, v := range res.Values {
					closed.add(key, v, 1)
				}
			}
		}
		if spec.HasTag("analytic") {
			b.chk.attempted += len(jobMS)
			modelErr = max(modelErr, b.checkModel(name, &closed, len(jobMS)))
		}
		b.tr.end(sid, len(jobMS))
		rep.add("exp."+name+".job_ms", "ms", jobMS...)
		rep.add("exp."+name+".allocs_per_job", "count", float64(allocs)/float64(len(jobMS)))
	}
	rep.add("model_err_pct", "%", modelErr)
	return first, nil
}

// kernelLayer times each sim.KernelBenchmarks workload.
func (b *bench) kernelLayer(rep *report) {
	lid := b.tr.begin(0, "layer.sim", -1)
	defer b.tr.end(lid, 1)
	for _, kb := range sim.KernelBenchmarks() {
		var per []float64
		for r := range b.sc.kernelReps {
			id := b.tr.begin(lid, "sim."+kb.Name, r)
			t0 := time.Now()
			kb.Run(b.sc.kernelOps)
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(b.sc.kernelOps))
			b.tr.end(id, b.sc.kernelOps)
		}
		rep.add("sim."+kb.Name+".ns_per_op", "ns", per...)
	}
}

// tuningOf is the kernel tuning Spec.Execute runs spec under.
func tuningOf(spec scenario.Spec) sim.Tuning {
	if spec.Tuning != nil {
		return *spec.Tuning
	}
	return sim.DefaultTuning()
}

// dcfProbe rebuilds e5's CAM downlink leg and checks it reproduces the
// camW and camCollisions values of e5's Result.
func (b *bench) dcfProbe(results map[string]scenario.Result, rep *report) error {
	spec, ok := scenario.Lookup("e5")
	if !ok {
		return fmt.Errorf("spec e5 is not registered")
	}
	want := results["e5"].Values
	lid := b.tr.begin(0, "probe.dcf", -1)
	defer b.tr.end(lid, 1)
	var runMS, nsPerEvent []float64
	var events uint64
	for r := range b.sc.probeReps {
		id := b.tr.begin(lid, "Simulator.RunUntil", r)
		avgW, coll, ev, run := camLeg(b.cfg.seed, tuningOf(spec))
		b.tr.end(id, 1)
		events = ev
		runMS = append(runMS, float64(run.Nanoseconds())/1e6)
		nsPerEvent = append(nsPerEvent, float64(run.Nanoseconds())/float64(ev))
		b.chk.attempted++
		if !sameBits(map[string]float64{"camW": avgW, "camCollisions": float64(coll)},
			map[string]float64{"camW": want["camW"], "camCollisions": want["camCollisions"]}) {
			b.chk.fail(1, "dcf probe: e5 seed %d CAM leg differs from the spec's Result", b.cfg.seed)
		}
	}
	rep.add("dcf.run_ms", "ms", runMS...)
	rep.add("dcf.events", "count", float64(events))
	rep.add("dcf.ns_per_event", "ns", nsPerEvent...)
	return nil
}

// camLeg is e5's CAM downlink leg: four always-listening DCF stations, a
// PSM-capable AP delivering 2000 B to each every 125 ms, and 200 B uplink
// status reports from each every 250 ms, for 30 simulated seconds. It
// returns the stations' mean power, the medium's collision count, the
// events fired and the wall time of the simulation.
func camLeg(seed int64, tun sim.Tuning) (avgW float64, collisions int, events uint64, run time.Duration) {
	const n = 4
	s := sim.NewTuned(seed, tun)
	m := dcf.NewMedium(s, dcf.Default80211b(), nil)
	apDev := radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
	ap := psm.NewAP(s, m, apDev, psm.DefaultConfig())
	devs := make([]*radio.Device, n)
	stations := make([]*dcf.Station, n)
	for i := range n {
		devs[i] = radio.NewDeviceInState(s, radio.WLAN80211b(), radio.Idle)
		stations[i] = dcf.NewStation(i, m, devs[i])
	}
	sim.NewTicker(s, 125*sim.Millisecond, func() {
		for i := range n {
			ap.Deliver(i, 2000)
		}
	})
	seq := 0
	sim.NewTicker(s, 250*sim.Millisecond, func() {
		seq++
		for i := range n {
			stations[i].Enqueue(frame.NewData(i, frame.AP, seq, 200))
		}
	})
	t0 := time.Now()
	s.RunUntil(30 * sim.Second)
	run = time.Since(t0)
	for _, d := range devs {
		avgW += d.Meter().AveragePower()
	}
	return avgW / n, m.Stats().Collisions, s.Fired(), run
}

// metroProbes are the metro configurations the probe can rebuild: e20 for
// the benchmark, the cheaper e18 for the smoke tests.
var metroProbes = map[string]struct {
	stations, aps int
	horizon       sim.Time
}{
	"e18": {20_000, 8, 30 * sim.Second},
	"e20": {100_000, 20, 60 * sim.Second},
}

// metroConfig is the dense metro cell e18 and e20 share: 802.11b PSM
// stations waking every 8th 100 ms beacon, 0.2 heavy-tailed downlink
// frames/s each.
func metroConfig(stations, aps int, horizon sim.Time) metro.Config {
	return metro.Config{
		APs:            aps,
		Stations:       stations,
		BeaconInterval: 100 * sim.Millisecond,
		ListenInterval: 8,
		WakeLead:       2 * sim.Millisecond,
		BeaconAir:      1 * sim.Millisecond,
		PollAir:        200 * sim.Microsecond,
		OverheadBytes:  28,
		RatePerStation: 0.2,
		Frame:          metro.Pareto{Alpha: 1.5, MinBytes: 200, MaxBytes: 15000},
		Horizon:        horizon,
		Profile:        radio.WLAN80211b(),
	}
}

// metroProbe rebuilds a metro spec's configuration through metro.New,
// Start, Simulator.RunUntil and Model.Finish, timing each, and checks the
// report and closed form reproduce the spec's Values.
func (b *bench) metroProbe(results map[string]scenario.Result, rep *report) error {
	name := b.sc.metroProbe
	spec, ok := scenario.Lookup(name)
	if !ok {
		return fmt.Errorf("spec %s is not registered", name)
	}
	p := metroProbes[name]
	cfg := metroConfig(p.stations, p.aps, p.horizon)
	want := results[name].Values
	lid := b.tr.begin(0, "probe.metro", -1)
	defer b.tr.end(lid, 1)
	var newMS, runMS, finishMS, nsPerEvent []float64
	var events uint64
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for r := range b.sc.probeReps {
		s := sim.NewTuned(b.cfg.seed, tuningOf(spec))
		id := b.tr.begin(lid, "metro.New", r)
		t0 := time.Now()
		m := metro.New(s, cfg)
		newMS = append(newMS, ms(time.Since(t0)))
		b.tr.end(id, 1)

		id = b.tr.begin(lid, "Simulator.RunUntil", r)
		t0 = time.Now()
		m.Start()
		s.RunUntil(cfg.Horizon)
		run := time.Since(t0)
		b.tr.end(id, 1)
		events = s.Fired()
		runMS = append(runMS, ms(run))
		nsPerEvent = append(nsPerEvent, float64(run.Nanoseconds())/float64(events))

		id = b.tr.begin(lid, "Model.Finish", r)
		t0 = time.Now()
		got := m.Finish()
		finishMS = append(finishMS, ms(time.Since(t0)))
		b.tr.end(id, 1)

		pred := metro.Predict(cfg)
		b.chk.attempted++
		if !sameBits(map[string]float64{
			"simJ": got.EnergyJ, "modelJ": pred.EnergyJ,
			"simW": got.AvgPowerW, "modelW": pred.AvgPowerW,
			"simBps": got.DeliveredGoodputBps, "modelBps": pred.ThroughputBps,
			"simStaSec": got.StationSec, "modelStaSec": pred.StationSec,
			"tolPct": pred.TolerancePct, "live": float64(got.Live), "frames": float64(got.DeliveredFrames),
		}, want) {
			b.chk.fail(1, "metro probe: %s seed %d differs from the spec's Result", name, b.cfg.seed)
		}
	}
	rep.add("metro.new_ms", "ms", newMS...)
	rep.add("metro.run_ms", "ms", runMS...)
	rep.add("metro.events", "count", float64(events))
	rep.add("metro.ns_per_event", "ns", nsPerEvent...)
	rep.add("metro.finish_ms", "ms", finishMS...)
	return nil
}
