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
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Shard executes seeds on a supervised pool of worker slots. A slot's
// transport is one of two interchangeable kinds speaking the same binary
// frame protocol (versioned via the hello frame — see codec.go):
//
//   - subprocess (default): the current binary re-executed with the hidden
//     -worker flag (plus the original command line, so workers rebuild any
//     flag-parameterized specs identically) over stdin/stdout;
//   - remote TCP (Addrs set): a connection dialed to a worker serving the
//     same protocol over TCP (the hidden -serve addr mode, see ServeNet),
//     so the fleet leaves the box.
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
// slots. A slot detects failure at the process level (exit, broken pipe),
// the connection level (dial timeout, dropped connection, per-frame read
// deadline with heartbeat keep-alive — a partitioned TCP worker stops
// heartbeating and is torn down), the time level (per-chunk deadline), and
// the stream level (frame/Result decode error, protocol-version mismatch);
// on any of them the dead transport is reaped, the slot reconnects or
// respawns on demand with capped exponential backoff plus jitter, and the
// chunk is reassigned. Every lease attempt carries a fresh epoch:
// responses are matched on (epoch, spec, seed), so a zombie or partitioned
// worker replaying a stale chunk after its lease was reassigned is
// discarded — counted, never double-emitted. A chunk that exhausts its
// retry budget is quarantined to in-process execution (graceful
// degradation to the Local path) when the policy allows, so a run only
// errors when every path is exhausted. Because every seed is deterministic
// and Results cross the boundary bit-exactly, a retried or degraded chunk
// is indistinguishable from a first-attempt one: the fabric tolerates
// crashes, hangs, partitions and corrupt frames without costing a single
// output bit (the chaos-injected cross-backend equivalence test pins
// exactly that). Worker-reported application errors (unknown spec,
// experiment panic) are terminal: the fleet is healthy, so retrying
// cannot fix the request.
//
// The pool starts lazily on the first Run and is shared across concurrent
// Run calls, so a Runner fanning the whole registry over one Shard keeps
// exactly Workers transports busy. Results are reordered into seed order
// before emission, so the aggregate is bit-identical to the Local
// backend's. Close shuts the workers down; callers that finished running
// should Close to reap subprocesses and connections. Health returns the
// supervision counters accumulated so far, including fabric throughput
// (seeds/sec, protocol bytes moved).
type Shard struct {
	Workers int         // slot count; values < 1 mean runtime.NumCPU() (or len(Addrs) for TCP), above MaxWorkers a Run error
	Argv    []string    // worker command; nil means {os.Executable(), "-worker", os.Args[1:]...}
	Env     []string    // extra KEY=VALUE pairs for worker subprocesses
	Addrs   []string    // remote TCP worker addresses; non-empty selects the TCP transport
	Chaos   string      // fault-injection schedule exported to subprocess workers as REPRO_CHAOS (see ParseChaos)
	Policy  FaultPolicy // supervision knobs; zero value means DefaultFaultPolicy
	Stderr  io.Writer   // sink for worker stderr and coordinator notices, worker lines prefixed "[wN] "; nil means os.Stderr

	once     sync.Once
	startErr error
	argv     []string
	pol      FaultPolicy
	jobs     chan *lease
	wg       sync.WaitGroup
	slots    []*workerSlot

	epochs       atomic.Int64 // lease-epoch allocator; every attempt gets a unique epoch
	retries      atomic.Int64
	quarantined  atomic.Int64
	degraded     atomic.Int64
	staleReplies atomic.Int64

	bytesSent atomic.Int64 // protocol bytes written to worker transports
	bytesRecv atomic.Int64 // protocol bytes read from worker transports
	runStart  atomic.Int64 // UnixNano of the first Run; throughput clock start
	runEnd    atomic.Int64 // UnixNano of the latest Run completion
}

// lease is one (spec, seed-chunk) unit of work: a run of consecutive
// seeds starting at index ki0 of the Run's seed slice, with its reply
// route, the coordinator-owned failed-attempt count and the epoch of the
// attempt currently in flight. Ownership alternates over the jobs/reply
// channels, so epoch and attempts are never accessed concurrently.
type lease struct {
	spec     Spec
	seeds    []int64
	ki0      int
	attempts int
	epoch    int64
	reply    chan<- leaseResult
}

type leaseResult struct {
	l     *lease
	epoch int64    // the epoch this attempt ran under
	res   []Result // len(l.seeds) on success
	kind  failKind
	err   error
}

// slotConn is one live transport session filling a worker slot: a
// subprocess's stdio pipes or a dialed TCP connection. send writes one
// chunk request; recv reads the response frame for one seed of it —
// splitting the exchange is what lets the supervisor pipeline a window of
// leases before reading anything back. interrupt makes blocked I/O fail
// now (the chunk-deadline enforcement); abort is the hard teardown after
// a fault; shutdown the graceful close at pool shutdown.
type slotConn interface {
	send(spec string, seeds []int64, epoch int64) (failKind, error)
	recv(spec string, seed, epoch int64) (Result, failKind, error)
	interrupt()
	abort()
	shutdown()
}

// connCore is the transport-independent half of a slot connection: binary
// frame encode/decode with reused scratch (the send path builds each
// frame in one buffer and writes it with a single Write; the recv path
// reads into one reused buffer and decodes Results through an interning
// decoder), hello/version validation, stale-frame matching and byte
// accounting. procConn and netConn embed it and add transport-specific
// teardown; the deadline hook and error classifier are the only behavior
// that differs between the two on the data path.
type connCore struct {
	w      io.Writer
	br     *bufio.Reader
	tag    string // error-message prefix: "shard" (subprocess) or "net" (TCP)
	stales *atomic.Int64
	sent   *atomic.Int64
	recvd  *atomic.Int64

	// arm arms the transport's per-frame deadline before a read or write;
	// nil for transports without deadlines (subprocess pipes — the chunk
	// timer is their only clock).
	arm func(read bool)
	// classify maps a raw transport error to the failure taxonomy.
	classify func(error) failKind

	fs      frameScratch
	inbuf   []byte
	dec     *resultDecoder
	helloOK bool
}

// send writes one chunk request as a single frame (header and payload in
// one Write — no torn-frame window, no per-seed round trips).
func (c *connCore) send(spec string, seeds []int64, epoch int64) (failKind, error) {
	frame := c.fs.requestFrame(spec, seeds, epoch)
	if c.arm != nil {
		c.arm(false)
	}
	if _, err := c.w.Write(frame); err != nil {
		return c.classify(err), fmt.Errorf("%s: send %s chunk: %w", c.tag, spec, err)
	}
	c.sent.Add(int64(len(frame)))
	return 0, nil
}

// recv reads frames until the response for (epoch, spec, seed) arrives.
// Heartbeats only prove liveness (they re-arm the per-frame deadline);
// the first non-heartbeat frame of a session must be a hello carrying
// protoVersion, so a build skew fails loudly as a decode fault instead of
// a misparse. Frames for any other (epoch, spec, seed) are stale — a
// zombie session's replays — and are skipped and counted, never surfaced.
func (c *connCore) recv(spec string, seed, epoch int64) (Result, failKind, error) {
	for {
		if c.arm != nil {
			c.arm(true)
		}
		payload, err := readRawFrame(c.br, &c.inbuf)
		if err != nil {
			kind := c.classify(err)
			if errors.Is(err, ErrDecode) {
				kind = failDecode
			}
			return Result{}, kind, fmt.Errorf("%s: %s seed %d: %w", c.tag, spec, seed, err)
		}
		c.recvd.Add(int64(4 + len(payload)))
		m, err := parseWireMsg(payload)
		if err != nil {
			return Result{}, failDecode, fmt.Errorf("%s: %s seed %d: %w", c.tag, spec, seed, err)
		}
		switch m.ftype {
		case frameHeartbeat:
			continue
		case frameHello:
			if c.helloOK {
				return Result{}, failDecode, fmt.Errorf("%s: %w: unexpected mid-session hello", c.tag, ErrDecode)
			}
			if m.version != protoVersion {
				return Result{}, failDecode, fmt.Errorf("%s: %w: worker speaks protocol version %d, want %d", c.tag, ErrDecode, m.version, protoVersion)
			}
			c.helloOK = true
			continue
		}
		if !c.helloOK {
			return Result{}, failDecode, fmt.Errorf("%s: %w: response before hello", c.tag, ErrDecode)
		}
		if m.epoch != epoch || string(m.spec) != spec || m.seed != seed {
			// A frame for some other attempt — a zombie session's replay.
			// Skipping (rather than failing) lets the live exchange on this
			// connection complete normally.
			c.stales.Add(1)
			continue
		}
		if m.ftype == frameError {
			return Result{}, failApp, fmt.Errorf("%s: worker: %s", c.tag, m.errMsg)
		}
		var res Result
		if err := c.dec.decode(m.result, &res, false); err != nil {
			return Result{}, failDecode, fmt.Errorf("%s: %s seed %d: %w", c.tag, spec, seed, err)
		}
		return res, 0, nil
	}
}

// workerSlot supervises one worker position in the pool: it owns at most
// one live transport session at a time, reopens it on demand after
// failures, and keeps the slot-stable health counters. The slot id is
// stable across restarts — it names the [wN] stderr prefix and the health
// row.
type workerSlot struct {
	id   int
	sh   *Shard
	open func() (slotConn, error) // transport factory: spawn subprocess or dial TCP

	conn slotConn
	gen  int // sessions opened in this slot so far

	consecFails int // consecutive failed batches/opens, drives the backoff

	restarts, chunks, seeds                      atomic.Int64
	spawnFails, exits, timeouts, decodes, stales atomic.Int64
}

// workerArgv builds the default worker command line. The -worker flag goes
// immediately after the program name — before any positional arguments —
// so flag parsing in the child is guaranteed to see it.
func workerArgv() ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("shard: resolve executable: %w", err)
	}
	return append([]string{exe, "-worker"}, os.Args[1:]...), nil
}

func (s *Shard) start() {
	s.pol = s.Policy.normalized()
	n := s.Workers
	if len(s.Addrs) > 0 {
		if n < 1 {
			n = len(s.Addrs)
		}
	} else {
		argv := s.Argv
		if argv == nil {
			argv, s.startErr = workerArgv()
			if s.startErr != nil {
				return
			}
		}
		s.argv = argv
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
	for i := 0; i < n; i++ {
		w := &workerSlot{id: i, sh: s}
		if len(s.Addrs) > 0 {
			addr := s.Addrs[i%len(s.Addrs)] // slots round-robin over the fleet
			w.open = func() (slotConn, error) { return dialWorker(addr, s.pol, w) }
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
	defer w.stop()
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

// ensureStarted opens the slot's transport session if none is live.
func (w *workerSlot) ensureStarted() error {
	if w.conn != nil {
		return nil
	}
	conn, err := w.open()
	if err != nil {
		return err
	}
	if w.gen > 0 {
		w.restarts.Add(1)
	}
	w.gen++
	w.conn = conn
	return nil
}

// spawnWorker starts one worker subprocess for the slot. The process gets
// the slot id and its generation in the environment (plus any chaos
// schedule), and its stderr is streamed to the shard's sink with a stable
// "[wN] " prefix so interleaved diagnostics from a restarted fleet stay
// attributable.
func (w *workerSlot) spawnWorker() (slotConn, error) {
	argv := w.sh.argv
	cmd := exec.Command(argv[0], argv[1:]...)
	env := append(os.Environ(),
		workerIDEnv+"="+strconv.Itoa(w.id),
		workerGenEnv+"="+strconv.Itoa(w.gen))
	if w.sh.Chaos != "" {
		env = append(env, chaosEnv+"="+w.sh.Chaos)
	}
	cmd.Env = append(env, w.sh.Env...)

	// A manual pipe (not cmd.StderrPipe) so our reader, not Wait, owns the
	// read end: Wait never races the prefix goroutine out of the tail of a
	// dying worker's diagnostics.
	stderrR, stderrW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = stderrW
	stdin, err := cmd.StdinPipe()
	if err != nil {
		stderrR.Close()
		stderrW.Close()
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		stderrR.Close()
		stderrW.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		stderrR.Close()
		stderrW.Close()
		return nil, fmt.Errorf("start %q: %w", argv[0], err)
	}
	stderrW.Close() // child holds the write end now
	sink := w.sh.Stderr
	if sink == nil {
		sink = os.Stderr
	}
	go prefixLines(sink, stderrR, fmt.Sprintf("[w%d] ", w.id))
	return &procConn{
		connCore: connCore{
			w:        stdin,
			br:       bufio.NewReader(stdout),
			tag:      "shard",
			stales:   &w.stales,
			sent:     &w.sh.bytesSent,
			recvd:    &w.sh.bytesRecv,
			classify: func(error) failKind { return failExit },
			dec:      newResultDecoder(),
		},
		cmd: cmd,
		in:  stdin,
	}, nil
}

// runBatch drives one pipelined batch: open the session if needed, write
// every lease's chunk request back-to-back, then read the streamed
// responses in the same order. The chunk deadline is per lease — the
// timer re-arms as each lease completes — enforced by interrupting the
// transport so the blocked exchange fails as a timeout.
func (w *workerSlot) runBatch(batch []*lease) {
	if err := w.ensureStarted(); err != nil {
		// The session never existed, so no lease was attempted: charge the
		// spawn failure to the first lease and put the rest back untouched.
		w.spawnFails.Add(1)
		w.consecFails++
		batch[0].reply <- leaseResult{l: batch[0], epoch: batch[0].epoch, kind: failSpawn,
			err: fmt.Errorf("shard: [w%d] open worker: %w", w.id, err)}
		for _, l := range batch[1:] {
			go func(l *lease) { w.sh.jobs <- l }(l)
		}
		w.backoff()
		return
	}
	conn := w.conn
	var timedOut atomic.Bool
	var timer *time.Timer
	to := w.sh.pol.ChunkTimeout
	if to > 0 {
		timer = time.AfterFunc(to, func() {
			timedOut.Store(true)
			conn.interrupt()
		})
		defer timer.Stop()
	}
	fail := func(from int, kind failKind, err error) {
		if timedOut.Load() && kind != failApp {
			kind = failTimeout
			err = fmt.Errorf("shard: [w%d] chunk deadline %s exceeded: %w", w.id, to, err)
		}
		switch kind {
		case failTimeout:
			w.timeouts.Add(int64(len(batch) - from))
		case failDecode:
			w.decodes.Add(int64(len(batch) - from))
		default:
			w.exits.Add(int64(len(batch) - from))
		}
		w.consecFails++
		w.kill()
		for _, l := range batch[from:] {
			l.reply <- leaseResult{l: l, epoch: l.epoch, kind: kind, err: err}
		}
		w.backoff()
	}
	for _, l := range batch {
		if kind, err := conn.send(l.spec.Name, l.seeds, l.epoch); err != nil {
			// Nothing was received yet, so no lease of this batch completed:
			// the dead transport fails them all.
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
			w.chunks.Add(1)
			w.seeds.Add(int64(len(l.seeds)))
			l.reply <- leaseResult{l: l, epoch: l.epoch, res: out}
		}
		if timer != nil {
			timer.Reset(to)
		}
	}
	w.consecFails = 0
}

// kill reaps the slot's transport session after a fault.
func (w *workerSlot) kill() {
	if w.conn == nil {
		return
	}
	w.conn.abort()
	w.conn = nil
}

// stop shuts the slot's session down gracefully at Close.
func (w *workerSlot) stop() {
	if w.conn == nil {
		return
	}
	w.conn.shutdown()
	w.conn = nil
}

// backoff sleeps the capped exponential restart delay with full jitter
// (see FaultPolicy.backoffDelay) so a crashing fleet never restarts in
// lockstep. Timing-only — jitter cannot reach any result bit.
func (w *workerSlot) backoff() {
	if d := w.sh.pol.backoffDelay(w.consecFails, rand.Int63n); d > 0 {
		time.Sleep(d)
	}
}

// procConn is the subprocess transport: connCore over the worker's stdio
// pipes plus the process handle for teardown. The stdio stream has no
// per-frame deadline (arm is nil) — the chunk timer is its only clock —
// and every transport error is a process exit or broken pipe.
type procConn struct {
	connCore
	cmd *exec.Cmd
	in  io.WriteCloser
}

func (c *procConn) interrupt() { c.cmd.Process.Kill() }

func (c *procConn) abort() {
	c.cmd.Process.Kill()
	c.in.Close()
	c.cmd.Wait()
}

// shutdown closes the worker gracefully: EOF on stdin asks it to exit; a
// wedged process is killed after a grace period.
func (c *procConn) shutdown() {
	c.in.Close()
	done := make(chan struct{})
	go func() {
		c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-done
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
// every path (or a worker reports a terminal application error).
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
	leases := make([]*lease, 0, numLeases)
	for i := 0; i < len(seeds); i += chunk {
		leases = append(leases, &lease{spec: spec, seeds: seeds[i:min(i+chunk, len(seeds))], ki0: i,
			epoch: s.epochs.Add(1), reply: reply})
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
			s.staleReplies.Add(1)
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
		case r.kind == failApp:
			if firstErr == nil {
				firstErr = r.err
			}
			outstanding--
		case firstErr != nil:
			// The run is already failing; retrying surviving chunks would
			// only delay the error.
			outstanding--
		case r.l.attempts < pol.MaxRetries:
			r.l.attempts++
			r.l.epoch = s.epochs.Add(1)
			s.retries.Add(1)
			go func(l *lease) { s.jobs <- l }(r.l)
		case pol.DegradeToLocal:
			s.quarantined.Add(1)
			degradedChunks++
			go s.runQuarantined(r.l)
		default:
			firstErr = fmt.Errorf("shard: %s seeds %v: %d worker attempts exhausted and degrade-to-local disabled: %w",
				spec.Name, r.l.seeds, r.l.attempts+1, r.err)
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
	s.degraded.Add(int64(len(l.seeds)))
	l.reply <- leaseResult{l: l, epoch: l.epoch, res: res}
}

// Health snapshots the supervision counters: per-slot worker health plus
// the coordinator's retry/quarantine/stale totals and the fabric
// throughput (seeds/sec over the Run wall clock, protocol bytes moved). A
// Shard that never ran reports an empty fleet; a fault-free run reports
// all-zero failure counters.
func (s *Shard) Health() ShardHealth {
	h := ShardHealth{
		Retries:       s.retries.Load(),
		Quarantined:   s.quarantined.Load(),
		DegradedSeeds: s.degraded.Load(),
		StaleReplies:  s.staleReplies.Load(),
		BytesSent:     s.bytesSent.Load(),
		BytesRecv:     s.bytesRecv.Load(),
	}
	seeds := h.DegradedSeeds
	for _, w := range s.slots {
		wh := WorkerHealth{
			ID:         w.id,
			Restarts:   w.restarts.Load(),
			Chunks:     w.chunks.Load(),
			Seeds:      w.seeds.Load(),
			SpawnFails: w.spawnFails.Load(),
			Exits:      w.exits.Load(),
			Timeouts:   w.timeouts.Load(),
			DecodeErrs: w.decodes.Load(),
			Stales:     w.stales.Load(),
		}
		seeds += wh.Seeds
		h.Workers = append(h.Workers, wh)
	}
	if start, end := s.runStart.Load(), s.runEnd.Load(); start != 0 && end > start {
		h.ElapsedSec = float64(end-start) / 1e9
		h.SeedsPerSec = float64(seeds) / h.ElapsedSec
	}
	return h
}

// Close shuts down the worker pool and waits for the transports to close.
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
