package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Chaos is the fault-injection configuration for a shard worker: the
// testable half of the fault-tolerant fabric. A worker with an active
// Chaos misbehaves on schedule — crashes after N seeds, hangs mid-chunk,
// emits a truncated or corrupt frame, or delays responses — so the
// supervisor's three failure detectors and the retry/degrade machinery
// can be exercised deterministically, in tests and from the CLI (-chaos).
//
// The configuration travels to subprocess workers via the REPRO_CHAOS
// environment variable (a TCP server takes it as NetServeOptions.ChaosSpec);
// the parent Shard also exports each worker's process generation within
// its slot (REPRO_WORKER_GEN), so a schedule can target specific
// generations — e.g. "every worker's first process
// crashes, its replacement runs clean", which is exactly the shape the
// chaos-injected equivalence test uses.
//
// All counts are 1-based indices into the stream of seeds one worker
// process executes — per seed, not per frame, so a schedule keeps its
// meaning whatever ChunkSeeds batches requests into; zero disables that
// fault. For a TCP worker
// (ServeNet) a "generation" is the accept-order index of the connection on
// the listener — a dropped or blackholed connection's replacement is the
// next generation, exactly like a crashed subprocess's restart.
//
// Every verb applies to both transports: stdio workers and TCP sessions
// run the same session loop. A verb that ends the session (crash-after,
// trunc-after, drop-conn-after) makes a stdio worker exit non-zero and
// closes a TCP session's connection.
type Chaos struct {
	CrashAfter    int           // end the session when asked for seed N, before responding
	HangAfter     int           // sleep HangFor before responding to seed N
	HangFor       time.Duration // hang duration; defaults to an hour (the chunk deadline reaps the worker first)
	CorruptAfter  int           // respond to seed N with a well-framed garbage payload
	TruncateAfter int           // respond to seed N with a truncated frame, then end the session
	DelayEvery    int           // sleep Delay before every Nth response
	Delay         time.Duration // benign delay; defaults to 10ms
	Gens          int           // apply faults only to worker generations < Gens; 0 means every generation

	// Network-shaped verbs; like the rest, they apply on both transports.
	DropConnAfter  int           // end the session on seed N without responding
	BlackholeAfter int           // from seed N on: keep the session open, stop responding and heartbeating (rest of the chunk vanishes too)
	SlowLink       time.Duration // delay every response by this much while heartbeats keep flowing (benign)
	ReplayAfter    int           // before responding to seed N, replay the previous response frame (stale epoch)
}

// Environment variables of the shard worker protocol. The parent sets
// them on the workers it spawns; ServeWorker reads them.
const (
	chaosEnv     = "REPRO_CHAOS"      // fault-injection schedule (ParseChaos grammar)
	workerGenEnv = "REPRO_WORKER_GEN" // process generation within the slot, 0-based
)

// ParseChaos parses a fault-injection schedule for a worker of the given
// generation. Two grammars are accepted:
//
// A flat clause applies to every generation (optionally aged out by gens):
//
//	crash-after=3,gens=2
//
// A generation schedule is ";"-separated "genN:" clauses; the clause
// matching the worker's generation applies and generations with no clause
// run clean:
//
//	gen0:crash-after=3;gen1:corrupt-after=2;gen2:hang-after=1
//
// Keys: crash-after, hang-after, hang-ms, corrupt-after, trunc-after,
// delay-every, delay-ms, gens, and the network verbs drop-conn-after,
// blackhole-after, slowlink-ms, replay-after. The empty spec is no chaos.
// A -ms value must fit a time.Duration.
func ParseChaos(spec string, gen int) (Chaos, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Chaos{}, nil
	}
	clause := spec
	if strings.Contains(spec, ":") || strings.Contains(spec, ";") {
		clause = ""
		for _, part := range strings.Split(spec, ";") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			label, body, ok := strings.Cut(part, ":")
			if !ok || !strings.HasPrefix(label, "gen") {
				return Chaos{}, fmt.Errorf("chaos: clause %q is not \"genN:k=v,...\"", part)
			}
			n, err := strconv.Atoi(strings.TrimPrefix(label, "gen"))
			if err != nil || n < 0 {
				return Chaos{}, fmt.Errorf("chaos: bad generation label %q", label)
			}
			if n == gen {
				clause = body
			}
		}
		if clause == "" {
			return Chaos{}, nil // this generation runs clean
		}
	}
	c, err := parseChaosClause(clause)
	if err != nil {
		return Chaos{}, err
	}
	if c.Gens > 0 && gen >= c.Gens {
		return Chaos{}, nil // faults aged out for this generation
	}
	return c, nil
}

// maxChaosMS is the largest -ms value whose time.Duration does not wrap.
const maxChaosMS = math.MaxInt64 / int64(time.Millisecond)

func parseChaosClause(clause string) (Chaos, error) {
	var c Chaos
	hangMS, delayMS, slowMS := -1, -1, -1
	for _, kv := range strings.Split(clause, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Chaos{}, fmt.Errorf("chaos: %q is not key=value", kv)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return Chaos{}, fmt.Errorf("chaos: %s=%q is not a non-negative integer", k, v)
		}
		if strings.HasSuffix(k, "-ms") && int64(n) > maxChaosMS {
			return Chaos{}, fmt.Errorf("chaos: %s=%d overflows a duration (at most %d)", k, n, maxChaosMS)
		}
		switch k {
		case "crash-after":
			c.CrashAfter = n
		case "hang-after":
			c.HangAfter = n
		case "hang-ms":
			hangMS = n
		case "corrupt-after":
			c.CorruptAfter = n
		case "trunc-after":
			c.TruncateAfter = n
		case "delay-every":
			c.DelayEvery = n
		case "delay-ms":
			delayMS = n
		case "gens":
			c.Gens = n
		case "drop-conn-after":
			c.DropConnAfter = n
		case "blackhole-after":
			c.BlackholeAfter = n
		case "slowlink-ms":
			slowMS = n
		case "replay-after":
			c.ReplayAfter = n
		default:
			return Chaos{}, fmt.Errorf("chaos: unknown key %q", k)
		}
	}
	c.HangFor = time.Hour
	if hangMS >= 0 {
		c.HangFor = time.Duration(hangMS) * time.Millisecond
	}
	c.Delay = 10 * time.Millisecond
	if delayMS >= 0 {
		c.Delay = time.Duration(delayMS) * time.Millisecond
	}
	if slowMS >= 0 {
		c.SlowLink = time.Duration(slowMS) * time.Millisecond
	}
	return c, nil
}
