package scenario

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Shard executes seeds on a supervised pool of worker slots. Every slot
// holds one TCP session speaking the binary frame protocol (versioned via
// the hello frame — see codec.go) to a worker that is either
//
//   - spawned (default): the current binary started with the hidden
//     -worker flag, which listens on a loopback port, announces it as its
//     first stdout line and exits when its stdin closes; or
//   - remote (Addrs set): a worker serving the protocol on a TCP address
//     (the hidden -serve addr mode, see ServeNet), so the fleet leaves the
//     box.
//
// Both are the same session (netConn) under the same liveness model, and
// either rebuilds each spec from the (name, Params) pair its chunk request
// carries, so a worker needs none of the coordinator's flags.
//
// Pipelining. The unit of I/O is the chunk, not the seed: one request
// frame carries a whole seed chunk, and the worker answers it with one
// response frame per seed, written together once the chunk is done, so a
// lease costs one round trip and one write however many seeds it holds.
// Unless FaultPolicy.ChunkSeeds fixes it, each Run sizes its chunks from
// its own seed count and the fleet (FaultPolicy.chunkFor): one seed per
// lease for small runs, up to tens for large sweeps of cheap specs. On top
// of that each slot keeps up to FaultPolicy.Window leases in flight on its
// connection: all requests of a batch are written before the first
// response is read, so transport latency is paid once per window, not once
// per lease. Responses arrive in request order (workers are serial), and
// every frame still echoes its (epoch, spec, seed) identity for stale
// matching.
//
// Supervision. A coordinator leases (spec, seed-chunk) units to worker
// slots. A slot detects failure at the process level (a spawned worker
// that exits before announcing its address), the connection level (dial
// timeout, dropped connection, per-frame read deadline with heartbeat
// keep-alive — a partitioned worker stops heartbeating and is torn down),
// the time level (per-chunk deadline), and the stream level (frame/Result
// decode error); on any of them the dead session is reaped, the slot
// respawns or redials on demand with capped exponential backoff plus
// jitter, and the chunk is reassigned. Every lease attempt carries a fresh
// epoch: responses are matched on (epoch, spec, seed), so a zombie or
// partitioned worker replaying a stale chunk after its lease was
// reassigned is discarded — counted, never double-emitted. A chunk that
// exhausts its retry budget is quarantined to in-process execution
// (graceful degradation to the Local path) when the policy allows, so a
// run only errors when every path is exhausted. Because every seed is
// deterministic and Results cross the boundary bit-exactly, a retried or
// degraded chunk is indistinguishable from a first-attempt one: the fabric
// tolerates crashes, hangs, partitions and corrupt frames without costing
// a single output bit (the chaos-injected cross-backend equivalence test
// pins exactly that). Worker-reported application errors (unknown spec,
// rejected params, experiment panic) and a worker speaking another
// protocol version are terminal: the fleet is up, so retrying cannot fix
// the request, and the Run's leases not yet attempted are answered
// without one.
//
// The pool starts lazily on the first Run and is shared across concurrent
// Run calls, so a Runner fanning the whole registry over one Shard keeps
// exactly Workers sessions busy. Results are reordered into seed order
// before emission, so the aggregate is bit-identical to the Local
// backend's. Close shuts the workers down; callers that finished running
// should Close to reap worker processes and connections. Health returns
// the supervision counters accumulated so far, including fabric throughput
// (seeds/sec, protocol bytes moved).
type Shard struct {
	Workers int          // slot count; values < 1 mean runtime.NumCPU() (or len(Addrs) for TCP), above MaxWorkers a Run error
	Argv    []string     // command of a spawned worker; nil means {os.Executable(), "-worker"}
	Addrs   []string     // remote worker addresses; non-empty replaces spawned workers
	Chaos   string       // fault-injection schedule exported to spawned workers as REPRO_CHAOS (see ParseChaos)
	Policy  *FaultPolicy // supervision knobs; nil means DefaultFaultPolicy()
	Stderr  io.Writer    // sink for worker stderr and coordinator notices, worker lines prefixed "[wN] "; nil means os.Stderr

	once     sync.Once
	startErr error
	argv     []string
	pol      FaultPolicy
	jobs     chan *lease
	wg       sync.WaitGroup
	slots    []*workerSlot
	epochs   atomic.Int64 // lease-epoch allocator; every attempt gets a unique epoch

	mu     sync.Mutex
	health ShardHealth // the counters Health reports; slot i counts into Workers[i]

	runStart atomic.Int64 // UnixNano of the first Run; throughput clock start
	runEnd   atomic.Int64 // UnixNano of the latest Run completion
}

// lease is one (spec, seed-chunk) unit of work: a run of consecutive
// seeds starting at index ki0 of the Run's seed slice, with its reply
// route, the coordinator-owned failed-attempt count and the epoch of the
// attempt currently in flight. Ownership alternates over the jobs/reply
// channels, so epoch and attempts are never accessed concurrently. halt is
// shared by the Run's leases and set once the Run has failed.
type lease struct {
	spec     Spec
	seeds    []int64
	ki0      int
	attempts int
	epoch    int64
	reply    chan<- leaseResult
	halt     *atomic.Bool
}

type leaseResult struct {
	l     *lease
	epoch int64    // the epoch this attempt ran under
	res   []Result // len(l.seeds) on success
	kind  failKind
	err   error
}

// workerSlot supervises one worker position in the pool: it owns at most
// one live session at a time and reopens it on demand after failures. The
// slot id is stable across restarts — it names the [wN] stderr prefix and
// the health row the slot counts into.
type workerSlot struct {
	id   int
	sh   *Shard
	open func() (*netConn, error) // session factory: spawnWorker or dialWorker

	conn *netConn
	gen  int // worker processes started or connections opened in this slot so far

	consecFails int // consecutive failed batches/opens, drives the backoff
}

// count applies f to the Shard's health counters under its lock.
func (s *Shard) count(f func(h *ShardHealth)) {
	s.mu.Lock()
	f(&s.health)
	s.mu.Unlock()
}

// count applies f to the slot's row of the Shard's health counters.
func (w *workerSlot) count(f func(h *WorkerHealth)) {
	w.sh.count(func(h *ShardHealth) { f(&h.Workers[w.id]) })
}

func (s *Shard) start() {
	s.pol = DefaultFaultPolicy()
	if s.Policy != nil {
		s.pol = *s.Policy
	}
	s.pol.Window = min(max(s.pol.Window, 1), MaxWindow)
	n := s.Workers
	if len(s.Addrs) > 0 {
		if n < 1 {
			n = len(s.Addrs)
		}
	} else {
		s.argv = s.Argv
		if s.argv == nil {
			exe, err := os.Executable()
			if err != nil {
				s.startErr = fmt.Errorf("shard: resolve executable: %w", err)
				return
			}
			s.argv = []string{exe, "-worker"}
		}
		if n < 1 {
			n = runtime.NumCPU()
		}
	}
	if n > MaxWorkers {
		s.startErr = fmt.Errorf("shard: %d workers exceeds the limit of %d", n, MaxWorkers)
		return
	}
	// Buffered so a slot collecting its pipelining window finds queued
	// leases without blocking on the producer.
	s.jobs = make(chan *lease, n*s.pol.Window)
	s.slots = make([]*workerSlot, n)
	s.count(func(h *ShardHealth) {
		h.Workers = make([]WorkerHealth, n)
		for i := range h.Workers {
			h.Workers[i].ID = i
		}
	})
	for i := 0; i < n; i++ {
		w := &workerSlot{id: i, sh: s}
		if len(s.Addrs) > 0 {
			addr := s.Addrs[i%len(s.Addrs)] // slots round-robin over the fleet
			w.open = func() (*netConn, error) { return dialWorker(addr, w) }
		} else {
			w.open = w.spawnWorker
		}
		s.slots[i] = w
		s.wg.Add(1)
		go w.supervise()
	}
}

// supervise is one slot's loop: take a lease, opportunistically collect
// up to Window-1 more already-queued ones (never blocking for them), and
// run them as one pipelined batch on the slot's session.
func (w *workerSlot) supervise() {
	defer w.sh.wg.Done()
	defer w.closeConn(5 * time.Second)
	batch := make([]*lease, 0, w.sh.pol.Window)
	for l := range w.sh.jobs {
		batch = append(batch[:0], l)
	collect:
		for len(batch) < w.sh.pol.Window {
			select {
			case l2, ok := <-w.sh.jobs:
				if !ok {
					break collect
				}
				batch = append(batch, l2)
			default:
				break collect
			}
		}
		w.runBatch(batch)
	}
}

// ensureStarted opens the slot's session if none is live. A spawned
// worker that exits before announcing its address still counts as a
// process start.
func (w *workerSlot) ensureStarted() error {
	if w.conn != nil {
		return nil
	}
	conn, err := w.open()
	if err == nil || errors.Is(err, errWorkerExited) {
		if w.gen > 0 {
			w.count(func(h *WorkerHealth) { h.Restarts++ })
		}
		w.gen++
	}
	w.conn = conn
	return err
}

// errWorkerExited marks a spawned worker that exited before announcing its
// address: a dying process, which fails its batch like a death
// mid-exchange rather than as a failed start.
var errWorkerExited = errors.New("worker exited before announcing its address")

// spawnWorker starts one worker process for the slot, waits up to
// DialTimeout for the loopback address it announces as its first stdout
// line, and dials it. The process gets its generation in the environment
// (plus any chaos schedule), and its stderr is streamed to the shard's
// sink with a stable "[wN] " prefix so interleaved diagnostics from a
// restarted fleet stay attributable. Nothing but the address may reach
// its stdout.
func (w *workerSlot) spawnWorker() (*netConn, error) {
	argv := w.sh.argv
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), workerGenEnv+"="+strconv.Itoa(w.gen))
	if w.sh.Chaos != "" {
		cmd.Env = append(cmd.Env, chaosEnv+"="+w.sh.Chaos)
	}

	// A manual stderr pipe (not cmd.StderrPipe) so our reader, not Wait,
	// owns the read end: Wait never races the prefix goroutine out of the
	// tail of a dying worker's diagnostics.
	stderrR, stderrW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = stderrW
	stdin, err := cmd.StdinPipe()
	var stdout io.ReadCloser
	if err == nil {
		stdout, err = cmd.StdoutPipe()
	}
	if err == nil {
		err = cmd.Start()
	}
	stderrW.Close() // the child holds the write end now
	if err != nil {
		stderrR.Close()
		return nil, fmt.Errorf("start %q: %w", argv[0], err)
	}
	sink := w.sh.Stderr
	if sink == nil {
		sink = os.Stderr
	}
	go prefixLines(sink, stderrR, fmt.Sprintf("[w%d] ", w.id))

	// A worker that has not announced its address within DialTimeout is
	// killed, which ends the read.
	var deadline *time.Timer
	if to := w.sh.pol.DialTimeout; to > 0 {
		deadline = time.AfterFunc(to, func() { cmd.Process.Kill() })
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	var conn *netConn
	switch {
	case deadline != nil && !deadline.Stop():
		err = fmt.Errorf("%q announced no address within %s", argv[0], w.sh.pol.DialTimeout)
	case err != nil:
		err = fmt.Errorf("%q: %w", argv[0], errWorkerExited)
	default:
		conn, err = dialWorker(strings.TrimSpace(line), w)
	}
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, err
	}
	conn.cmd, conn.stdin = cmd, stdin
	return conn, nil
}

// runBatch drives one pipelined batch: answer the leases of a failed Run
// unattempted, open the session if needed, write every lease's chunk
// request back-to-back, then read the streamed responses in the same
// order. The chunk deadline is per lease — the timer re-arms as each lease
// completes — enforced by closing the connection so the blocked exchange
// fails as a timeout.
func (w *workerSlot) runBatch(batch []*lease) {
	live := batch[:0]
	for _, l := range batch {
		if l.halt.Load() {
			l.reply <- leaseResult{l: l, epoch: l.epoch, kind: failApp, err: errors.New("shard: run already failed")}
		} else {
			live = append(live, l)
		}
	}
	if batch = live; len(batch) == 0 {
		return
	}
	var timedOut atomic.Bool
	to := w.sh.pol.ChunkTimeout
	fail := func(from int, kind failKind, err error) {
		if timedOut.Load() && !kind.terminal() {
			kind = failTimeout
			err = fmt.Errorf("shard: [w%d] chunk deadline %s exceeded: %w", w.id, to, err)
		}
		n := int64(len(batch) - from)
		w.count(func(h *WorkerHealth) {
			switch kind { // a failVersion is a build mismatch, not a worker fault
			case failTimeout:
				h.Timeouts += n
			case failDecode:
				h.DecodeErrs += n
			case failExit:
				h.Exits += n
			}
		})
		w.consecFails++
		w.closeConn(0)
		for _, l := range batch[from:] {
			l.reply <- leaseResult{l: l, epoch: l.epoch, kind: kind, err: err}
		}
		w.backoff()
	}
	if err := w.ensureStarted(); err != nil {
		err = fmt.Errorf("shard: [w%d] open worker: %w", w.id, err)
		if errors.Is(err, errWorkerExited) {
			fail(0, failExit, err)
			return
		}
		// The session never existed, so no lease was attempted: charge the
		// failed start to the first lease and put the rest back untouched.
		w.count(func(h *WorkerHealth) { h.SpawnFails++ })
		w.consecFails++
		batch[0].reply <- leaseResult{l: batch[0], epoch: batch[0].epoch, kind: failSpawn, err: err}
		for _, l := range batch[1:] {
			go func(l *lease) { w.sh.jobs <- l }(l)
		}
		w.backoff()
		return
	}
	conn := w.conn
	var timer *time.Timer
	if to > 0 {
		timer = time.AfterFunc(to, func() {
			timedOut.Store(true)
			conn.conn.Close()
		})
		defer timer.Stop()
	}
	for _, l := range batch {
		if kind, err := conn.send(l.spec, l.seeds, l.epoch); err != nil {
			// Nothing was received yet, so no lease of this batch completed:
			// the dead session fails them all.
			fail(0, kind, err)
			return
		}
	}
	for bi, l := range batch {
		out := make([]Result, len(l.seeds))
		var appErr error
		for si, seed := range l.seeds {
			res, kind, err := conn.recv(l.spec.Name, seed, l.epoch)
			if err != nil {
				if kind == failApp {
					// The worker answered: the request is broken but the session
					// — and the rest of the streamed chunk — is healthy. Keep
					// draining so later leases stay in sync.
					if appErr == nil {
						appErr = err
					}
					continue
				}
				fail(bi, kind, err)
				return
			}
			out[si] = res
		}
		if appErr != nil {
			l.reply <- leaseResult{l: l, epoch: l.epoch, kind: failApp, err: appErr}
		} else {
			w.count(func(h *WorkerHealth) { h.Chunks++; h.Seeds += int64(len(l.seeds)) })
			l.reply <- leaseResult{l: l, epoch: l.epoch, res: out}
		}
		if timer != nil {
			timer.Reset(to)
		}
	}
	w.consecFails = 0
}

// closeConn ends the slot's session: at once after a fault, gracefully
// (see netConn.close) at Close.
func (w *workerSlot) closeConn(grace time.Duration) {
	if w.conn != nil {
		w.conn.close(grace)
		w.conn = nil
	}
}

// backoff sleeps the capped exponential restart delay with full jitter
// (see FaultPolicy.backoffDelay) so a crashing fleet never restarts in
// lockstep. Timing-only — jitter cannot reach any result bit.
func (w *workerSlot) backoff() {
	if d := w.sh.pol.backoffDelay(w.consecFails, rand.Int63n); d > 0 {
		time.Sleep(d)
	}
}

// prefixLines copies src to dst line by line with the given prefix.
func prefixLines(dst io.Writer, src io.Reader, prefix string) {
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		fmt.Fprintf(dst, "%s%s\n", prefix, sc.Bytes())
	}
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

// Run fans the seeds across the worker pool as (spec, seed-chunk) leases
// and emits the Results in seed order. Failed leases are retried up to
// the policy's budget — each retry under a fresh lease epoch, so a zombie
// attempt that outlived its reassignment is discarded rather than
// double-emitted — then quarantined to in-process execution when
// degradation is enabled; the call errors only when a chunk has exhausted
// every path or a worker fails it terminally (an application error or
// another protocol version).
func (s *Shard) Run(spec Spec, seeds []int64, emit Emit) error {
	s.once.Do(s.start)
	if s.startErr != nil {
		return s.startErr
	}
	if s.jobs == nil {
		return errors.New("shard: executor is closed")
	}
	s.runStart.CompareAndSwap(0, time.Now().UnixNano())
	defer func() { s.runEnd.Store(time.Now().UnixNano()) }()
	pol := s.pol
	chunk := pol.chunkFor(len(seeds), len(s.slots))
	numLeases := (len(seeds) + chunk - 1) / chunk
	// One slot per lease, so no supervisor or quarantine goroutine ever
	// blocks on the reply route, whatever order the coordinator drains it
	// in: a lease has at most one attempt in flight, because a retry or a
	// quarantine starts only after the coordinator has taken the failed
	// attempt's reply. (Sizing by MaxRetries instead let a huge retry budget
	// overflow the channel size.)
	reply := make(chan leaseResult, numLeases)
	halt := new(atomic.Bool)
	leases := make([]*lease, 0, numLeases)
	for i := 0; i < len(seeds); i += chunk {
		leases = append(leases, &lease{spec: spec, seeds: seeds[i:min(i+chunk, len(seeds))], ki0: i,
			epoch: s.epochs.Add(1), reply: reply, halt: halt})
	}
	go func() {
		for _, l := range leases {
			s.jobs <- l
		}
	}()

	ord := newReorder(emit)
	var firstErr error
	degradedChunks := 0
	for outstanding := len(leases); outstanding > 0; {
		r := <-reply
		if r.epoch != r.l.epoch {
			// A reply from an attempt whose lease has since been reassigned
			// (a zombie worker past a partition): the live attempt owns the
			// lease now, so this one — success or failure — is void. Dropping
			// it is what makes reassignment safe: exactly one attempt per
			// lease can ever reach the emit path.
			s.count(func(h *ShardHealth) { h.StaleReplies++ })
			continue
		}
		switch {
		case r.err == nil:
			if firstErr == nil {
				for i, res := range r.res {
					ord.deliver(r.l.ki0+i, res)
				}
			}
			outstanding--
		case r.kind.terminal():
			if firstErr == nil {
				firstErr = r.err
				halt.Store(true)
			}
			outstanding--
		case firstErr != nil:
			// The run is already failing; retrying surviving chunks would
			// only delay the error.
			outstanding--
		case r.l.attempts < pol.MaxRetries:
			r.l.attempts++
			r.l.epoch = s.epochs.Add(1)
			s.count(func(h *ShardHealth) { h.Retries++ })
			go func(l *lease) { s.jobs <- l }(r.l)
		case pol.DegradeToLocal:
			s.count(func(h *ShardHealth) { h.Quarantined++ })
			degradedChunks++
			go s.runQuarantined(r.l)
		default:
			firstErr = fmt.Errorf("shard: %s seeds %v: %d worker attempts exhausted and degrade-to-local disabled: %w",
				spec.Name, r.l.seeds, r.l.attempts+1, r.err)
			halt.Store(true)
			outstanding--
		}
	}
	if degradedChunks > 0 {
		// Degradation is graceful, not silent: one summary line per Run names
		// how much of the sweep the fleet failed to carry (the same count
		// lands in Health().Quarantined).
		sink := s.Stderr
		if sink == nil {
			sink = os.Stderr
		}
		fmt.Fprintf(sink, "shard: %d chunks degraded to local\n", degradedChunks)
	}
	return firstErr
}

// runQuarantined executes a chunk in-process after its worker retries are
// exhausted — the graceful-degradation path. The seeds are the same
// deterministic functions the workers would have run, so the emitted
// Results are bit-identical to a healthy worker's.
func (s *Shard) runQuarantined(l *lease) {
	res := make([]Result, len(l.seeds))
	for i, seed := range l.seeds {
		r, err := executeSafe(l.spec, seed)
		if err != nil {
			l.reply <- leaseResult{l: l, epoch: l.epoch, kind: failApp,
				err: fmt.Errorf("shard: quarantined chunk: %w", err)}
			return
		}
		res[i] = r
	}
	s.count(func(h *ShardHealth) { h.DegradedSeeds += int64(len(l.seeds)) })
	l.reply <- leaseResult{l: l, epoch: l.epoch, res: res}
}

// Health snapshots the supervision counters: per-slot worker health plus
// the coordinator's retry/quarantine/stale totals and the fabric
// throughput (seeds/sec over the Run wall clock, protocol bytes moved). A
// Shard that never ran reports an empty fleet; a fault-free run reports
// all-zero failure counters.
func (s *Shard) Health() ShardHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.health
	h.Workers = slices.Clone(h.Workers)
	if start, end := s.runStart.Load(), s.runEnd.Load(); start != 0 && end > start {
		h.ElapsedSec = float64(end-start) / 1e9
		seeds := h.DegradedSeeds
		for _, w := range h.Workers {
			seeds += w.Seeds
		}
		h.SeedsPerSec = float64(seeds) / h.ElapsedSec
	}
	return h
}

// Close shuts down the worker pool and waits for the sessions to close.
// It must not be called concurrently with Run.
func (s *Shard) Close() error {
	s.once.Do(func() {}) // a never-started Shard has nothing to reap
	if s.jobs != nil {
		close(s.jobs)
		s.wg.Wait()
		s.jobs = nil
	}
	return nil
}

// errExecutor is an Executor that always fails; the cache tests use it to
// prove warm runs never reach the inner backend.
type errExecutor struct{ err error }

func (e errExecutor) Run(Spec, []int64, Emit) error { return e.err }

// FailExecutor returns an Executor whose Run always returns an error with
// the given message. It exists for tests that must prove a decorator never
// delegates (e.g. a warm cache).
func FailExecutor(msg string) Executor { return errExecutor{errors.New(msg)} }
