// Command bench is the repository benchmark. It runs one sweep workload
// through the scenario engine the way the frontends do (Runner over a
// Local pool or the Shard fabric), checks every output it produces, and
// prints the end-to-end metrics; with -trace 1 it instead does a separate
// traced run that measures each layer from outside and prints the
// per-layer metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": V, "unit": "U"}, ...}}
//
// Run it from the repository root (bench/run.sh builds it first):
//
//	bench -workload catalogue -seed 1 -seconds 20 -trace 0
//
// It exits 0 when every check passed, 1 when a check failed (the JSON line
// is still printed) or the run could not complete (no JSON line), 2 on bad
// flags and 130 when interrupted. README.md documents the workloads, the
// metrics and the trace file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	_ "repro/internal/exp" // register the experiment catalogue
)

// config is one invocation. The last two fields are set by tests only.
type config struct {
	workload string
	seed     int64
	seconds  int    // length of the timed phase
	trace    bool   // do the traced per-layer run instead of the timed one
	spans    string // where a traced run writes its spans

	reduced bool // one round of one seed, one set-up, one repetition per layer
	flipBit bool // flip one bit of a replayed Result before the Runner folds it
}

func main() {
	start := time.Now()
	if served, code := serveMode(os.Args[1:]); served {
		os.Exit(code)
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "first seed S; every round runs seeds S…S+n−1")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 does the traced run and prints the per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "trace file of a traced run (default .bench_build/spans-WORKLOAD-SEED.json)")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := execute(ctx, cfg, start, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// execute runs cfg, prints the report and returns the exit status. Every
// child process it starts has been reaped when it returns.
func execute(ctx context.Context, cfg config, start time.Time, stdout, stderr io.Writer) int {
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	b, err := newBench(cfg, w)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var rep *report
	if cfg.trace {
		rep, err = b.traced(ctx, start)
	} else {
		rep, err = b.timed(ctx, start)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		if ctx.Err() != nil {
			return 130
		}
		return 1
	}
	if err := b.print(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if b.chk.failed > 0 {
		return 1
	}
	return 0
}

// report is the metric set one run prints, in print order, with lines of
// context that stay out of the JSON result.
type report struct {
	metrics []metric
	info    []string
}

// metric is one named measurement; its value is the median of its samples.
type metric struct {
	name, unit string
	samples    []float64
}

func (r *report) add(name, unit string, samples ...float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, samples: samples})
}

// checks counts the outputs checked and the ones that failed.
type checks struct {
	attempted, failed int
	notes             []string // the first few failure messages
}

// fail records a failed check covering jobs jobs.
func (c *checks) fail(jobs int, format string, args ...any) {
	c.failed += jobs
	if len(c.notes) < 10 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// print writes one human-readable line per metric (median, quartiles,
// sample count and, from eleven samples on, the tail percentile), then the
// JSON result line.
func (b *bench) print(w io.Writer, rep *report) error {
	mode := "timed"
	if b.cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "bench %s seed %d (%s): %d jobs checked, %d failed\n",
		b.w.name, b.cfg.seed, mode, b.chk.attempted, b.chk.failed)
	for _, n := range b.chk.notes {
		fmt.Fprintf(w, "  check failed: %s\n", n)
	}
	for _, s := range rep.info {
		fmt.Fprintf(w, "  %s\n", s)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.chk.failed == 0, b.chk.attempted, b.chk.failed, map[string]value{}}
	for _, m := range rep.metrics {
		v := median(m.samples)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		out.Metrics[m.name] = value{v, m.unit}
		line := fmt.Sprintf("  %-38s %14.6g %-6s", m.name, v, m.unit)
		if n := len(m.samples); n > 1 {
			q1, q3 := quartiles(m.samples)
			line += fmt.Sprintf("  q1 %.6g  q3 %.6g  n=%d", q1, q3, n)
			if p, tv, ok := tail(m.samples); ok {
				line += fmt.Sprintf("  p%.3g %.6g", p, tv)
			}
		}
		fmt.Fprintln(w, line)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
