package scenario

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"time"
)

// The one transport of the sweep fabric: the binary frame protocol over
// TCP. The coordinator side is dialWorker/netConn, which the Shard
// supervisor drives for spawned and remote workers alike; the worker side
// is session.serve, run once per spawned process by ServeWorker and once
// per accepted connection by ServeNet (the hidden -serve addr mode of
// every frontend). Failure detection is connection-level: dial timeouts,
// per-frame deadlines kept alive by heartbeat frames, and (epoch, spec,
// seed) matching that discards stale frames from zombie sessions. A remote
// fleet can mix builds — which is why every session opens with a hello
// frame carrying protoVersion, turning a protocol skew into a terminal
// error instead of a misparse.

// heartbeatEvery is the default interval at which a worker session emits
// liveness frames. It must sit far inside FaultPolicy.FrameTimeout: the
// heartbeat is what lets the coordinator's per-frame read deadline
// distinguish "computing a long seed" from "partitioned".
const heartbeatEvery = 1 * time.Second

// dialWorker opens one coordinator→worker session for slot w.
func dialWorker(addr string, w *workerSlot) (*netConn, error) {
	d := net.Dialer{Timeout: max(w.sh.pol.DialTimeout, 0)} // a negative Timeout would fail every dial
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return w.newConn(conn), nil
}

// newConn wraps an established connection as slot w's session.
func (w *workerSlot) newConn(conn net.Conn) *netConn {
	return &netConn{w: w, conn: conn, br: bufio.NewReader(conn), dec: newResultDecoder()}
}

// netConn is one coordinator→worker session: binary frame encode/decode
// with reused scratch (the send path builds each frame in one buffer and
// writes it with a single Write; the recv path reads into one reused
// buffer and decodes Results through an interning decoder), hello/version
// validation, stale-frame matching and byte accounting (into its Shard's
// health), with FrameTimeout, re-armed before every read and write, as
// the liveness clock. A spawned worker's session also holds the process
// and its stdin for teardown.
type netConn struct {
	w    *workerSlot
	conn net.Conn
	br   *bufio.Reader

	fs      frameScratch
	inbuf   []byte
	dec     *resultDecoder
	helloOK bool

	cmd   *exec.Cmd // the spawned worker; nil for a remote one
	stdin io.Closer // its stdin, whose EOF asks it to exit
}

// send writes one chunk request for spec, named by its Name and Params, as
// a single frame (header and payload in one Write — no torn-frame window,
// no per-seed round trips).
func (c *netConn) send(spec Spec, seeds []int64, epoch int64) (failKind, error) {
	frame := c.fs.requestFrame(spec.Name, spec.Params, seeds, epoch)
	if to := c.w.sh.pol.FrameTimeout; to > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(to))
	}
	if _, err := c.conn.Write(frame); err != nil {
		return classifyNetErr(err), fmt.Errorf("net: send %s chunk: %w", spec.Name, err)
	}
	c.w.sh.count(func(h *ShardHealth) { h.BytesSent += int64(len(frame)) })
	return 0, nil
}

// recv reads frames until the response for (epoch, spec, seed) arrives.
// Heartbeats only prove liveness (the per-frame deadline re-arms before
// every read, so only silence trips it); the first non-heartbeat frame of
// a session must be a hello, and a hello carrying another protoVersion is
// a terminal failVersion rather than a misparse. Frames for any other
// (epoch, spec, seed) are stale — a zombie session's replays — and are
// skipped and counted, never surfaced.
func (c *netConn) recv(spec string, seed, epoch int64) (Result, failKind, error) {
	for {
		if to := c.w.sh.pol.FrameTimeout; to > 0 {
			c.conn.SetReadDeadline(time.Now().Add(to))
		}
		payload, err := readRawFrame(c.br, &c.inbuf)
		if err != nil {
			return Result{}, classifyNetErr(err), fmt.Errorf("net: %s seed %d: %w", spec, seed, err)
		}
		c.w.sh.count(func(h *ShardHealth) { h.BytesRecv += int64(4 + len(payload)) })
		m, err := parseWireMsg(payload)
		if err != nil {
			return Result{}, failDecode, fmt.Errorf("net: %s seed %d: %w", spec, seed, err)
		}
		switch m.ftype {
		case frameHeartbeat:
			continue
		case frameHello:
			if c.helloOK {
				return Result{}, failDecode, fmt.Errorf("net: %w: unexpected mid-session hello", ErrDecode)
			}
			if m.version != protoVersion {
				return Result{}, failVersion, fmt.Errorf("net: worker speaks protocol version %d, coordinator version %d", m.version, protoVersion)
			}
			c.helloOK = true
			continue
		}
		if !c.helloOK {
			return Result{}, failDecode, fmt.Errorf("net: %w: response before hello", ErrDecode)
		}
		if m.epoch != epoch || string(m.spec) != spec || m.seed != seed {
			// A frame for some other attempt — a zombie session's replay.
			// Skipping (rather than failing) lets the live exchange on this
			// connection complete normally.
			c.w.count(func(h *WorkerHealth) { h.Stales++ })
			continue
		}
		if m.ftype == frameError {
			return Result{}, failApp, fmt.Errorf("net: worker: %s", m.errMsg)
		}
		var res Result
		if err := c.dec.decode(m.result, &res, false); err != nil {
			return Result{}, failDecode, fmt.Errorf("net: %s seed %d: %w", spec, seed, err)
		}
		return res, 0, nil
	}
}

// close ends the session. A spawned worker is asked to exit by EOF on its
// stdin and killed if it has not exited within grace (at once for 0).
func (c *netConn) close(grace time.Duration) {
	c.conn.Close()
	if c.cmd == nil {
		return
	}
	c.stdin.Close()
	t := time.AfterFunc(grace, func() { c.cmd.Process.Kill() })
	c.cmd.Wait()
	t.Stop()
}

// classifyNetErr maps a session error to the supervisor's failure
// taxonomy: a corrupt frame is failDecode, a network timeout (per-frame
// deadline — i.e. a partition) failTimeout, anything else a dropped
// connection or dead process, failExit.
func classifyNetErr(err error) failKind {
	var ne net.Error
	switch {
	case errors.Is(err, ErrDecode):
		return failDecode
	case errors.As(err, &ne) && ne.Timeout():
		return failTimeout
	}
	return failExit
}

// NetServeOptions configures a TCP worker server (ServeNet).
type NetServeOptions struct {
	// ChaosSpec is the raw fault-injection schedule (ParseChaos grammar).
	// It is resolved per connection: a session's generation is the
	// accept-order index of its connection on the listener, so "genN:"
	// clauses target the N-th accepted connection — a dropped connection's
	// replacement is the next generation, mirroring a spawned worker's
	// restart.
	ChaosSpec string
	// Heartbeat is the liveness-frame interval; ≤ 0 means heartbeatEvery.
	// A served worker always heartbeats: without them it is
	// indistinguishable from a partitioned one on long seeds.
	Heartbeat time.Duration
	// Log is the diagnostics sink; nil means os.Stderr.
	Log io.Writer
}

// ServeNet serves the shard worker protocol on ln until the listener
// closes. Each accepted connection is one independent worker session —
// the same session loop a spawned worker (ServeWorker) runs — served
// concurrently; a malformed chaos schedule is a startup error.
func ServeNet(ln net.Listener, o NetServeOptions) error {
	if _, err := ParseChaos(o.ChaosSpec, 0); err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	hb := o.Heartbeat
	if hb <= 0 {
		hb = heartbeatEvery
	}
	if o.Log == nil {
		o.Log = os.Stderr
	}
	for gen := 0; ; gen++ {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("worker: accept: %w", err)
		}
		chaos, _ := ParseChaos(o.ChaosSpec, gen) // validated above
		s := session{chaos: chaos, heartbeat: hb, log: o.Log, gen: gen}
		go func() {
			defer conn.Close()
			s.serve(conn) // a session's end is its own: the coordinator sees the closed connection
		}()
	}
}

// ListenAndServeNet listens on addr and serves the worker protocol — the
// body of the hidden -serve flag.
func ListenAndServeNet(addr string, o NetServeOptions) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	if o.Log == nil {
		o.Log = os.Stderr
	}
	fmt.Fprintf(o.Log, "worker: serving on %s\n", ln.Addr())
	return ServeNet(ln, o)
}
