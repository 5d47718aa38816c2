package scenario

import (
	"fmt"
	"strings"
	"time"
)

// FaultPolicy configures the Shard executor's supervision layer: how many
// times a failed (spec, seed-chunk) lease is reassigned, how long a worker
// may hold a lease before it is declared hung, how worker restarts are
// paced, and whether an exhausted chunk degrades to in-process execution
// instead of failing the run.
//
// Every field means what its flag says. MaxRetries, ChunkTimeout,
// RestartBackoff, DialTimeout and FrameTimeout at 0 or below mean none:
// no reassignment, no deadline, no restart pause. Window at 1 or below
// means no pipelining. So the zero FaultPolicy is the barest supervision
// (one attempt per chunk, no deadlines, no degradation); a Shard with a nil
// Policy runs DefaultFaultPolicy. Retries are semantically free: every seed
// is deterministic and Results cross the worker boundary bit-exactly, so a
// recomputed chunk is indistinguishable from the first attempt.
type FaultPolicy struct {
	// MaxRetries is the number of times a failed chunk is reassigned to a
	// (possibly restarted) worker after its first failed attempt. A chunk
	// that fails 1+MaxRetries worker attempts is quarantined.
	MaxRetries int
	// ChunkTimeout bounds one lease: a worker that has not finished its
	// chunk within the deadline is killed and the chunk fails as a timeout.
	ChunkTimeout time.Duration
	// RestartBackoff is the base delay before a failed worker slot takes
	// its next lease; consecutive failures back off exponentially, up to
	// maxBackoffFactor × RestartBackoff, with jitter so a crashing fleet
	// never restarts in lockstep.
	RestartBackoff time.Duration
	// DegradeToLocal runs a quarantined chunk in-process on the coordinator
	// (the Local path every worker wraps anyway) instead of failing the
	// run, so a run only errors once every path is exhausted.
	DegradeToLocal bool
	// ChunkSeeds is the number of consecutive seeds per lease. One lease is
	// one request frame, answered with one response frame per seed that the
	// worker writes in one go once the chunk is done, so larger chunks
	// amortize the request round trip and the write across more seeds (at
	// the cost of coarser retry units — a failed chunk recomputes all its
	// seeds). Zero (the default) or negative sizes the chunk from each Run:
	// see chunkFor.
	ChunkSeeds int
	// Window is the number of leases a worker slot keeps in flight on its
	// connection: all requests of a window are written before the first
	// response is read, so transport latency is paid once per window.
	// Values above MaxWindow are clamped to it.
	Window int

	// DialTimeout bounds one connection attempt to a worker, and a spawned
	// worker's wait for its announced address. Connection-level failure
	// detection starts here: an unreachable host or a worker that never
	// announces fails the attempt instead of hanging the slot.
	DialTimeout time.Duration
	// FrameTimeout is the per-frame read deadline on a worker connection:
	// if no frame (response or heartbeat) arrives within it, the worker is
	// declared partitioned and the connection is torn down. Healthy
	// workers heartbeat every heartbeatEvery, far inside this deadline, so
	// a long-running seed never trips it.
	FrameTimeout time.Duration
}

// DefaultFaultPolicy returns the repository-wide supervision defaults:
// three reassignments per chunk, a two-minute chunk deadline (every
// registered experiment finishes a seed in well under a second), 100 ms
// base restart backoff (so at most 5 s), degradation to local execution
// enabled, leases sized from each Run (ChunkSeeds 0), four leases
// pipelined per connection, a 5 s dial timeout and a 5 s per-frame read
// deadline (heartbeats arrive every second, so only a partition — never a
// slow seed — can exhaust it).
func DefaultFaultPolicy() FaultPolicy {
	return FaultPolicy{
		MaxRetries:     3,
		ChunkTimeout:   2 * time.Minute,
		RestartBackoff: 100 * time.Millisecond,
		DegradeToLocal: true,
		ChunkSeeds:     0,
		Window:         4,
		DialTimeout:    5 * time.Second,
		FrameTimeout:   5 * time.Second,
	}
}

// Bounds on the Shard's sizing knobs. A slot is a goroutine plus a worker
// process or connection, and the lease queue holds slots × Window entries,
// so unbounded values would exhaust memory before any work ran. Both sit
// far above anything useful: pipelining pays for transport latency, which
// a few leases in flight already hide.
const (
	MaxWorkers = 1024 // Shard.Workers above this is a start error
	MaxWindow  = 256  // FaultPolicy.Window above this is clamped
)

// Automatic lease sizing (ChunkSeeds 0). A Run is cut so every slot gets
// at least leaseWindows pipelining windows of leases: a slot collects up to
// Window queued leases per batch, so the run's tail — the last batch, which
// may leave the other slots idle — is at most ~1/leaseWindows of a slot's
// share. The chunk is capped at maxAutoChunk seeds: the per-lease cost (a
// lease record, a request frame, one response write — tens of µs, the whole
// fabric overhead of one-seed leases) is under 1% of a 64-seed lease of the
// cheapest registered specs (fig1, ~0.1 ms a seed), so larger chunks only
// coarsen retries. It is also capped so that a lease of the slowest
// registered seeds finishes well inside ChunkTimeout, because the deadline
// is per lease: e20, the slowest, takes ~0.4 s a seed on a 2-vCPU host, so
// a budget of slowSeedBudget per seed leaves 5× headroom.
const (
	leaseWindows   = 8
	maxAutoChunk   = 64
	slowSeedBudget = 2 * time.Second
)

// chunkFor returns the seeds per lease for a Run of n seeds over slots
// worker slots. An explicit ChunkSeeds is honoured (capped at n, which
// yields the same single lease); zero sizes the chunk as
// n / (slots × Window × leaseWindows), at least 1 and at most
// min(maxAutoChunk, ChunkTimeout / slowSeedBudget). Small runs therefore
// keep one-seed leases and the retry granularity of expensive specs.
func (p FaultPolicy) chunkFor(n, slots int) int {
	if p.ChunkSeeds > 0 {
		return max(1, min(p.ChunkSeeds, n))
	}
	limit := maxAutoChunk
	if p.ChunkTimeout > 0 {
		limit = min(limit, int(p.ChunkTimeout/slowSeedBudget))
	}
	return max(1, min(n/(slots*p.Window*leaseWindows), limit))
}

// maxBackoffFactor caps the restart backoff at this multiple of
// RestartBackoff: 5 s at the default 100 ms.
const maxBackoffFactor = 50

// backoffDelay is the restart pacing schedule: capped exponential with
// full jitter on the upper half. For the k-th consecutive failure (k ≥ 1)
// the base delay is RestartBackoff << (k-1), capped at maxBackoffFactor ×
// RestartBackoff, and the slept delay is uniformly drawn from [base/2,
// base] — so a crashing fleet never restarts in lockstep. rnd supplies the
// jitter draw (rand.Int63n-shaped); a disabled backoff (RestartBackoff ≤ 0)
// is always zero and draws nothing. Timing-only — jitter cannot reach any
// result bit.
func (p FaultPolicy) backoffDelay(consecFails int, rnd func(n int64) int64) time.Duration {
	if p.RestartBackoff <= 0 {
		return 0
	}
	// 1<<6 already passes the cap, so larger shifts cannot change d.
	shift := min(max(consecFails-1, 0), 6)
	d := min(p.RestartBackoff<<shift, maxBackoffFactor*p.RestartBackoff)
	half := d / 2
	return half + time.Duration(rnd(int64(half)+1))
}

// failKind classifies one failed lease attempt. The supervisor detects
// worker failure four ways — process exit or dropped connection, failed
// start, deadline timeout, and frame/result decode error — and two kinds
// are terminal: failApp marks worker-reported application errors (unknown
// spec, experiment panic) and failVersion a worker speaking another
// protocol version, which retrying a live fleet cannot fix.
type failKind int

const (
	failExit    failKind = iota // worker died or connection dropped, before announcing or mid-exchange
	failSpawn                   // worker process could not be started or announce, or connection could not be dialed
	failTimeout                 // chunk deadline or per-frame deadline exceeded; worker killed
	failDecode                  // corrupt frame or undecodable Result
	failApp                     // worker-reported error; terminal, never retried
	failVersion                 // worker hello carries another protoVersion; terminal, never retried
)

// terminal reports whether a failure ends the Run instead of being
// retried.
func (k failKind) terminal() bool { return k == failApp || k == failVersion }

// WorkerHealth is one worker slot's counters. A slot keeps its id across
// restarts — the [wN] stderr prefix and these counters describe the slot,
// however many worker processes or connections have filled it.
type WorkerHealth struct {
	ID         int
	Restarts   int64 // process starts / reconnects beyond the slot's first
	Chunks     int64 // leases completed
	Seeds      int64 // seeds computed
	SpawnFails int64 // failed process starts or announcements / failed dials
	Exits      int64 // leases failed by process exit / dropped connection
	Timeouts   int64 // leases failed by chunk deadline or per-frame read deadline
	DecodeErrs int64 // leases failed by corrupt frames / undecodable Results
	Stales     int64 // stale frames discarded (wrong epoch/seed — zombie replays)
}

// Failures sums the slot's failed lease attempts across all detection
// paths.
func (w WorkerHealth) Failures() int64 {
	return w.SpawnFails + w.Exits + w.Timeouts + w.DecodeErrs
}

// ShardHealth is a snapshot of the supervision counters for one Shard:
// per-worker slot health plus the coordinator's retry/quarantine totals.
// A fault-free run reports all zeros (the cross-backend equivalence test
// pins exactly that).
type ShardHealth struct {
	Workers       []WorkerHealth
	Retries       int64 // chunk reassignments after a failed attempt
	Quarantined   int64 // chunks degraded to in-process execution
	DegradedSeeds int64 // seeds computed in-process by quarantined chunks
	StaleReplies  int64 // lease replies discarded for a superseded epoch (zombie workers)

	// Fabric throughput: how fast seeds moved through the wire protocol.
	BytesSent   int64   // protocol bytes the coordinator wrote (chunk requests)
	BytesRecv   int64   // protocol bytes the coordinator read (responses, heartbeats)
	ElapsedSec  float64 // wall clock from the first Run's start to the latest Run's end
	SeedsPerSec float64 // seeds emitted per second of that wall clock (worker + degraded)
}

// Stales sums the stale frames discarded across every worker slot.
func (h ShardHealth) Stales() int64 {
	var n int64
	for _, w := range h.Workers {
		n += w.Stales
	}
	return n
}

// Failures sums failed lease attempts across every worker slot.
func (h ShardHealth) Failures() int64 {
	var n int64
	for _, w := range h.Workers {
		n += w.Failures()
	}
	return n
}

// Restarts sums worker restarts across every slot.
func (h ShardHealth) Restarts() int64 {
	var n int64
	for _, w := range h.Workers {
		n += w.Restarts
	}
	return n
}

// Summary renders the fleet-level line the CLIs report on stderr, then one
// line per worker slot. The throughput tail of the fleet line appears once
// a Run has finished (ElapsedSec > 0).
func (h ShardHealth) Summary() string {
	var chunks int64
	for _, w := range h.Workers {
		chunks += w.Chunks
	}
	var b strings.Builder
	fmt.Fprintf(&b, "shard: %d workers, %d chunks ok, %d failures, %d retries, %d restarts, %d quarantined (%d seeds degraded to local), %d stale drops",
		len(h.Workers), chunks, h.Failures(), h.Retries, h.Restarts(), h.Quarantined, h.DegradedSeeds, h.Stales()+h.StaleReplies)
	if h.ElapsedSec > 0 {
		fmt.Fprintf(&b, ", %.0f seeds/s (%d B sent, %d B recvd)", h.SeedsPerSec, h.BytesSent, h.BytesRecv)
	}
	for _, w := range h.Workers {
		fmt.Fprintf(&b, "\n  [w%d] restarts %d, chunks %d (%d seeds), failures %d (%d exit, %d spawn, %d timeout, %d decode), %d stale frames dropped",
			w.ID, w.Restarts, w.Chunks, w.Seeds, w.Failures(), w.Exits, w.SpawnFails, w.Timeouts, w.DecodeErrs, w.Stales)
	}
	return b.String()
}
