package scenario

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The worker side of the shard protocol. A subprocess worker is the
// parent's binary started with the hidden -worker flag alone; it serves
// chunk requests over stdin/stdout as binary frames until EOF. The
// session opens with a hello frame announcing protoVersion — both ends
// are normally the same build, but the TCP transport can connect across
// builds, so the version byte turns a protocol skew into a loud decode
// fault instead of a misparse.
//
// One request frame carries a whole seed chunk and the spec's name and
// params, which the worker resolves once per chunk (see resolve) whatever
// flags it was started with. It answers with one result or error frame per
// seed, each echoing the request's (epoch, spec, seed) identity, and
// writes the chunk's frames together once its last seed is done. The coordinator discards any response whose
// identity does not match a lease in flight — so a zombie or partitioned
// worker replaying a stale chunk after its lease was reassigned can never
// double-emit a seed.
//
// Both transports run the same session loop (session.serve): stdio workers
// over stdin/stdout, TCP workers (ServeNet) over each accepted connection.
// The only transport difference is the heartbeat, which TCP sessions need
// to feed the coordinator's per-frame read deadline.

// ServeWorker runs the shard worker loop: read a chunk request, resolve
// its spec, execute each seed, answer with one response frame per seed.
// A spec that does not resolve (unknown name, params its builder rejects)
// gets an error frame per seed naming spec and params, which the
// coordinator treats as terminal. It returns nil on clean EOF.
//
// If the REPRO_CHAOS environment variable is set (the parent Shard
// exports its -chaos schedule there), the worker misbehaves on the
// configured schedule — the fault-injection half of the supervision
// layer. Chaos triggers count executed seeds, not request frames, so a
// schedule keeps its meaning whatever the chunk size. A malformed
// schedule is a startup error, and a verb that ends the session
// (crash-after, trunc-after, drop-conn-after) makes ServeWorker return an
// error, so the worker process exits non-zero through its caller.
//
// Nothing but protocol frames may be written to w — a worker whose
// experiments print to stdout would corrupt the stream — which holds
// because experiments return rendered tables instead of printing them.
func ServeWorker(r io.Reader, w io.Writer) error {
	gen, _ := strconv.Atoi(os.Getenv(workerGenEnv))
	chaos, err := ParseChaos(os.Getenv(chaosEnv), gen)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	s := session{chaos: chaos, log: os.Stderr, gen: gen}
	return s.serve(struct {
		io.Reader
		io.Writer
	}{r, w})
}

// session is one worker session's configuration: its chaos schedule, its
// heartbeat interval (0 disables — stdio workers have no per-frame
// deadline to feed), the diagnostics sink and the generation named in
// chaos diagnostics.
type session struct {
	chaos     Chaos
	heartbeat time.Duration
	log       io.Writer
	gen       int
}

// serve is the worker session loop: hello first, then chunk requests in,
// heartbeats and per-seed responses out. Response frames collect in one
// pending buffer that holds only whole frames and is written with a single
// Write after the chunk's last seed — one write per chunk, not per seed.
// A heartbeat writes the pending frames ahead of itself, so on TCP a chunk
// of slow seeds still reaches the coordinator within a heartbeat interval
// and liveness stays heartbeat-driven (stdio has no per-frame deadline).
// A session that ends mid-chunk may drop the chunk's pending frames: the
// coordinator fails a lease as a whole, so they could not have counted.
// Buffer and transport share one mutex, so a heartbeat can never split a
// frame and frames leave in the order they were queued. It returns nil on
// clean EOF and an error when the transport fails, a request does not
// parse, or a chaos verb ends the session.
func (s session) serve(rw io.ReadWriter) error {
	var wmu sync.Mutex
	var pending []byte // whole frames queued for the next write; guarded by wmu
	queue := func(frame []byte) {
		wmu.Lock()
		pending = append(pending, frame...)
		wmu.Unlock()
	}
	// flush writes the pending frames followed by tail (nil, a heartbeat or
	// a chaos frame) in one Write.
	flush := func(tail []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		pending = append(pending, tail...)
		if len(pending) == 0 {
			return nil
		}
		_, err := rw.Write(pending)
		pending = pending[:0]
		return err
	}
	var fs frameScratch
	if err := flush(fs.helloFrame()); err != nil {
		return fmt.Errorf("worker: write hello: %w", err)
	}
	var hbOff atomic.Bool
	if s.heartbeat > 0 {
		stop := make(chan struct{})
		defer close(stop)
		hbFrame := (&frameScratch{}).heartbeatFrame() // own buffer: never races fs
		go func() {
			t := time.NewTicker(s.heartbeat)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if hbOff.Load() {
						continue
					}
					if flush(hbFrame) != nil {
						return
					}
				}
			}
		}()
	}
	c := s.chaos
	br := bufio.NewReader(rw)
	var inbuf []byte
	var seeds []int64
	var prev []byte // copy of the previous response frame, kept only while replay-after is armed
	blackholed := false
	n := 0 // executed-seed counter: the chaos schedule's clock
	for {
		payload, err := readRawFrame(br, &inbuf)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("worker: read request: %w", err)
		}
		req, err := parseWireRequest(payload, seeds[:0])
		if err != nil {
			return fmt.Errorf("worker: read request: %w", err)
		}
		seeds = req.seeds
		if blackholed {
			continue // swallow everything; the coordinator's deadline reaps us
		}
		spec, resolveErr := resolve(string(req.spec), string(req.params))
		for _, seed := range req.seeds {
			n++
			// Pre-response faults: the coordinator sees a dead session, a
			// seed that never completes, or one that completes late.
			if c.SlowLink > 0 {
				time.Sleep(c.SlowLink)
			}
			if c.DelayEvery > 0 && n%c.DelayEvery == 0 {
				time.Sleep(c.Delay)
			}
			if c.CrashAfter > 0 && n == c.CrashAfter {
				return s.chaosEnd("crashing on seed %d", n)
			}
			if c.DropConnAfter > 0 && n == c.DropConnAfter {
				return s.chaosEnd("dropping connection on seed %d", n)
			}
			if c.HangAfter > 0 && n == c.HangAfter {
				s.logChaos("hanging on seed %d", n)
				time.Sleep(c.HangFor)
			}
			if c.BlackholeAfter > 0 && n == c.BlackholeAfter {
				s.logChaos("blackholing session from seed %d", n)
				hbOff.Store(true)
				blackholed = true
				break // the rest of the chunk vanishes too
			}
			var frame []byte
			if resolveErr != nil {
				frame = fs.errorFrame(req.spec, seed, req.epoch, resolveErr.Error())
			} else if res, err := executeSafe(spec, seed); err != nil {
				frame = fs.errorFrame(req.spec, seed, req.epoch, err.Error())
			} else {
				frame = fs.resultFrame(req.spec, seed, req.epoch, res)
			}
			// Response-stream faults: the coordinator's decoder or stale
			// matching, not its liveness detectors, must catch these.
			if c.TruncateAfter > 0 && n == c.TruncateAfter {
				flush(truncatedFrame) // the session ends either way
				return s.chaosEnd("truncating response %d", n)
			}
			if c.CorruptAfter > 0 && n == c.CorruptAfter {
				s.logChaos("corrupting response %d", n)
				queue(corruptFrame)
				continue
			}
			if c.ReplayAfter > 0 && n == c.ReplayAfter && prev != nil {
				// A stale frame ahead of the real response: the coordinator must
				// discard it on (epoch, spec, seed) and still complete cleanly.
				s.logChaos("replaying stale frame before response %d", n)
				queue(prev)
			}
			queue(frame)
			if c.ReplayAfter > n {
				prev = append(prev[:0], frame...)
			}
		}
		if err := flush(nil); err != nil {
			return fmt.Errorf("worker: write response: %w", err)
		}
	}
}

// logChaos reports an injected fault on the session's diagnostics sink.
func (s session) logChaos(format string, n int) {
	fmt.Fprintf(s.log, "chaos: "+format+" (gen %d)\n", n, s.gen)
}

// chaosEnd reports a session-ending fault and returns the error that ends
// the session: the caller closes the connection or exits the process.
func (s session) chaosEnd(format string, n int) error {
	s.logChaos(format, n)
	return fmt.Errorf("worker: chaos: "+format, n)
}

// truncatedFrame is a header promising more payload than follows, so the
// coordinator's frame reader fails with an unexpected EOF once the session
// ends.
var truncatedFrame = append(binary.BigEndian.AppendUint32(nil, 1024), "chaos"...)

// corruptFrame is a well-framed payload that is not a protocol message
// ('c' is no frame type), so the coordinator's message parse fails with
// ErrDecode while the stream framing stays intact.
var corruptFrame = func() []byte {
	payload := "chaos! not a frame {{{"
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}()

// executeSafe converts a panicking experiment into a protocol error, so
// the parent reports the real failure instead of an opaque broken pipe.
func executeSafe(spec Spec, seed int64) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s seed %d panicked: %v", spec.Name, seed, p)
		}
	}()
	return spec.Execute(seed), nil
}
