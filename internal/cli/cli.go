// Package cli holds the flag-parsing and Runner-setup boilerplate shared
// by the experiment frontends (figgen, macbench, hotspotsim), so the seed /
// seeds / backend / parallel / profiling conventions are declared once and
// cannot drift between commands again.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/scenario"
)

// RunFlags is the shared frontend flag set: seeding, execution backend
// selection, worker-pool sizing, shard fault-tolerance knobs, and
// optional CPU/heap profiling of the run.
type RunFlags struct {
	Seed     int64
	SeedsN   int
	Parallel int

	Backend    string // local | shard | cached
	Workers    int    // shard: worker count (spawned processes, or slots over -addrs)
	CacheDir   string // cached: cache root directory
	Worker     bool   // internal: this process is a shard worker
	Addrs      string // shard: comma-separated remote TCP worker addresses
	Serve      string // internal: serve as a TCP shard worker on this address
	Store      string // cached: remote result store address
	ServeStore string // serve the shared result store on this address
	HealthJSON string // write structured backend health counters here after a run

	// Shard supervision knobs, each field bound to its flag, and the
	// fault-injection schedule exported to workers (see scenario.ParseChaos).
	Policy scenario.FaultPolicy
	Chaos  string

	CPUProfile string
	MemProfile string

	// LastRun is the summary of the most recent Run call: backend counters
	// frontends print after their tables. Nil fields mean the backend keeps
	// no such counters.
	LastRun RunSummary

	fs *flag.FlagSet // the set the flags were registered on; nil before Register
}

// RunSummary carries the structured counters a Run left behind. It is
// also the -health-json document shape.
type RunSummary struct {
	Cache *scenario.CacheStats  `json:"cache,omitempty"` // cached backend: hit/miss/write-error counters
	Shard *scenario.ShardHealth `json:"shard,omitempty"` // shard backend: per-worker health + retry counters
}

// Register installs the shared flags on fs with the repository-wide
// defaults (seed 1, one seed, the in-process local backend with NumCPU
// workers, the default fault policy, no chaos, no profiling).
func (f *RunFlags) Register(fs *flag.FlagSet) {
	f.fs = fs
	f.Policy = scenario.DefaultFaultPolicy()
	p := &f.Policy
	fs.Int64Var(&f.Seed, "seed", 1, "base simulation seed")
	fs.IntVar(&f.SeedsN, "seeds", 1, "number of consecutive seeds per experiment")
	fs.IntVar(&f.Parallel, "parallel", runtime.NumCPU(), "worker pool size for (experiment × seed) jobs")
	fs.StringVar(&f.Backend, "backend", "local", "execution backend: local | shard | cached (see EXPERIMENTS.md)")
	fs.IntVar(&f.Workers, "workers", runtime.NumCPU(), fmt.Sprintf("worker count for -backend shard: spawned processes, or slots over -addrs (at most %d)", scenario.MaxWorkers))
	fs.StringVar(&f.CacheDir, "cache-dir", ".repro-cache", "result cache directory for -backend cached")
	fs.BoolVar(&f.Worker, "worker", false, "internal: serve as a spawned shard worker (announces a loopback address on stdout, exits when stdin closes)")
	fs.StringVar(&f.Addrs, "addrs", "", "shard: comma-separated remote TCP worker addresses (host:port); empty means spawned local workers")
	fs.StringVar(&f.Serve, "serve", "", "serve as a TCP shard worker on this address (host:port) until killed")
	fs.StringVar(&f.Store, "store", "", "cached: remote result store address (host:port); -cache-dir becomes the outage fallback")
	fs.StringVar(&f.ServeStore, "serve-store", "", "serve the shared result store on this address, backed by -cache-dir")
	fs.StringVar(&f.HealthJSON, "health-json", "", "write the run's backend health counters as JSON to this file (\"-\" for stdout)")
	fs.IntVar(&p.MaxRetries, "max-retries", p.MaxRetries, "shard: reassignments of a failed seed chunk before quarantine (0 = none)")
	fs.DurationVar(&p.ChunkTimeout, "chunk-timeout", p.ChunkTimeout, "shard: deadline per leased seed chunk (0 disables)")
	fs.DurationVar(&p.RestartBackoff, "restart-backoff", p.RestartBackoff, "shard: base worker restart backoff (exponential up to 50x, jittered; 0 disables)")
	fs.BoolVar(&p.DegradeToLocal, "degrade-local", p.DegradeToLocal, "shard: run exhausted chunks in-process instead of failing the run")
	fs.IntVar(&p.ChunkSeeds, "chunk-seeds", p.ChunkSeeds, "shard: seeds per lease, 0 = sized from the run (one request frame and one response write cover the whole chunk)")
	fs.IntVar(&p.Window, "window", p.Window, fmt.Sprintf("shard: leases pipelined per worker connection (1 or less disables pipelining, at most %d)", scenario.MaxWindow))
	fs.DurationVar(&p.DialTimeout, "dial-timeout", p.DialTimeout, "shard: worker dial timeout, and how long a spawned worker may take to announce its address (0 disables)")
	fs.DurationVar(&p.FrameTimeout, "frame-timeout", p.FrameTimeout, "shard: per-frame read deadline on worker connections (0 disables)")
	fs.StringVar(&f.Chaos, "chaos", "", "shard/serve: fault-injection schedule for workers, e.g. \"crash-after=2,gens=2\" (see EXPERIMENTS.md)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile at the end of the run to this file")
}

// Seeds returns the seed set selected by the flags: SeedsN consecutive
// seeds starting at Seed.
func (f *RunFlags) Seeds() []int64 { return scenario.Seeds(f.Seed, f.SeedsN) }

// Executor builds the execution backend selected by -backend. The caller
// owns the result; Run does the close-and-report bookkeeping, so frontends
// normally never call this directly.
func (f *RunFlags) Executor() (scenario.Executor, error) {
	if f.Chaos != "" {
		if f.Backend != "shard" {
			return nil, fmt.Errorf("-chaos requires -backend shard (got %q)", f.Backend)
		}
		if f.Addrs != "" {
			return nil, fmt.Errorf("-chaos cannot reach remote workers; pass it to the -serve process instead")
		}
		if _, err := scenario.ParseChaos(f.Chaos, 0); err != nil {
			return nil, err
		}
	}
	if f.Addrs != "" && f.Backend != "shard" {
		return nil, fmt.Errorf("-addrs requires -backend shard (got %q)", f.Backend)
	}
	if f.Store != "" && f.Backend != "cached" {
		return nil, fmt.Errorf("-store requires -backend cached (got %q)", f.Backend)
	}
	switch f.Backend {
	case "", "local":
		return &scenario.Local{Parallel: f.Parallel}, nil
	case "shard":
		if err := f.checkShardFlags(); err != nil {
			return nil, err
		}
		pol := f.Policy
		sh := &scenario.Shard{
			Workers: f.Workers,
			Chaos:   f.Chaos,
			Policy:  &pol,
		}
		if f.Addrs != "" {
			sh.Addrs = strings.Split(f.Addrs, ",")
			if !f.flagSet("workers") {
				sh.Workers = 0 // default the slot count to the fleet size, not NumCPU
			}
		}
		return sh, nil
	case "cached":
		return &scenario.Cache{Inner: &scenario.Local{Parallel: f.Parallel}, Dir: f.CacheDir, Addr: f.Store}, nil
	default:
		return nil, fmt.Errorf("unknown backend %q (want local, shard or cached)", f.Backend)
	}
}

// flagSet reports whether the named flag was explicitly set on the
// command line.
func (f *RunFlags) flagSet(name string) bool {
	if f.fs == nil {
		return false
	}
	set := false
	f.fs.Visit(func(fl *flag.Flag) {
		if fl.Name == name {
			set = true
		}
	})
	return set
}

// ServeMode runs whichever server mode the flags request — -worker
// (spawned shard worker), -serve (remote shard worker), -serve-store
// (shared result store on -cache-dir) — and reports whether one ran. Frontends call it
// first thing after flag parsing, before checking any other flag: a worker
// rebuilds every spec from its chunk requests, so it needs none of them.
// When it reports true the process was a server and must exit with the
// returned error.
func (f *RunFlags) ServeMode() (bool, error) {
	switch {
	case f.Worker:
		return true, scenario.ServeWorker(os.Stdin, os.Stdout)
	case f.Serve != "":
		return true, scenario.ListenAndServeNet(f.Serve, scenario.NetServeOptions{ChaosSpec: f.Chaos})
	case f.ServeStore != "":
		return true, scenario.ListenAndServeStore(f.ServeStore, f.CacheDir)
	}
	return false, nil
}

// Run executes specs across the selected seeds on the selected backend,
// bracketed by any requested profiles — so hot-path profiling of any
// registered experiment is one command:
//
//	figgen -cpuprofile cpu.out -run e5 -seeds 32
//
// Backend resources (shard worker processes) are released before Run
// returns, and backend counters are reported to stderr — a caching
// backend's hit/miss/write-error line, a shard backend's supervision
// health block — while stdout stays parseable (-json). The same counters
// land in LastRun for frontends that print a run summary. CI asserts on
// both. A -seeds value below 1 is a usage error, not a one-seed run.
func (f *RunFlags) Run(specs []scenario.Spec, keepPerSeed bool) ([]scenario.AggResult, error) {
	if f.SeedsN < 1 {
		return nil, fmt.Errorf("-seeds must be at least 1 (got %d)", f.SeedsN)
	}
	exec, err := f.Executor()
	if err != nil {
		return nil, err
	}
	stop, err := f.StartProfiles()
	if err != nil {
		return nil, err
	}
	aggs, runErr := (&scenario.Runner{Parallel: f.Parallel, KeepPerSeed: keepPerSeed, Executor: exec}).Run(specs, f.Seeds())
	if c, ok := exec.(io.Closer); ok {
		if err := c.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	f.LastRun = RunSummary{}
	switch e := exec.(type) {
	case *scenario.Cache:
		stats := e.Stats()
		f.LastRun.Cache = &stats
		fmt.Fprintln(os.Stderr, stats)
	case *scenario.Shard:
		health := e.Health()
		f.LastRun.Shard = &health
		fmt.Fprintln(os.Stderr, health.Summary())
	}
	if f.HealthJSON != "" {
		if err := f.writeHealthJSON(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		stop()
		return nil, runErr
	}
	return aggs, stop()
}

// writeHealthJSON emits LastRun's structured counters as JSON — the
// machine-readable twin of the stderr health block, so CI asserts on
// counters instead of grepping log text.
func (f *RunFlags) writeHealthJSON() error {
	data, err := json.MarshalIndent(f.LastRun, "", "  ")
	if err != nil {
		return fmt.Errorf("health-json: %w", err)
	}
	data = append(data, '\n')
	if f.HealthJSON == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(f.HealthJSON, data, 0o644); err != nil {
		return fmt.Errorf("health-json: %w", err)
	}
	return nil
}

// StartProfiles begins CPU profiling when -cpuprofile was given and returns
// a stop function that finalizes it and writes the -memprofile heap
// snapshot. The stop function is always non-nil and safe to call once.
// Frontends that bypass Run (single-seed direct paths) call this pair
// around their own run.
func (f *RunFlags) StartProfiles() (stop func() error, err error) {
	var cpuFile *os.File
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if f.MemProfile != "" {
			mf, err := os.Create(f.MemProfile)
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			defer mf.Close()
			runtime.GC() // materialize the final live heap before snapshotting
			if err := pprof.WriteHeapProfile(mf); err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// checkShardFlags bounds the flags that size the shard fleet. -workers
// slots each run a worker, and the lease queue holds -workers × -window
// entries, so an unbounded value would panic or exhaust memory before any
// work ran. Frontends exit 2 with the returned error.
func (f *RunFlags) checkShardFlags() error {
	if f.Workers > scenario.MaxWorkers {
		return fmt.Errorf("-workers must be at most %d (got %d)", scenario.MaxWorkers, f.Workers)
	}
	if f.Policy.Window > scenario.MaxWindow {
		return fmt.Errorf("-window must be at most %d (got %d)", scenario.MaxWindow, f.Policy.Window)
	}
	return nil
}
