package scenario

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"
)

// The TCP transport of the sweep fabric: the same binary frame protocol
// the stdio shard workers speak, lifted onto a network connection so the
// fleet leaves the box. The coordinator side is dialWorker/netConn (a
// slotConn the Shard supervisor drives exactly like a subprocess); the
// worker side is ServeNet (the hidden -serve addr mode of every
// frontend). Failure detection is connection-level: dial timeouts,
// per-frame read deadlines kept alive by heartbeat frames, and (epoch,
// spec, seed) matching that discards stale frames from zombie sessions.
// Unlike subprocess workers, a TCP fleet can mix builds — which is why
// every session opens with a hello frame carrying protoVersion, turning a
// protocol skew into a loud decode fault instead of a misparse.

// heartbeatEvery is the default interval at which a TCP worker session
// emits liveness frames. It must sit far inside FaultPolicy.FrameTimeout:
// the heartbeat is what lets the coordinator's per-frame read deadline
// distinguish "computing a long seed" from "partitioned".
const heartbeatEvery = 1 * time.Second

// dialWorker opens one coordinator→worker TCP session for slot w.
func dialWorker(addr string, pol FaultPolicy, w *workerSlot) (slotConn, error) {
	d := net.Dialer{Timeout: pol.DialTimeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return newNetConn(conn, pol, &w.stales, &w.sh.bytesSent, &w.sh.bytesRecv), nil
}

// newNetConn wraps an established connection as a TCP slot transport.
func newNetConn(conn net.Conn, pol FaultPolicy, stales, sent, recvd *atomic.Int64) *netConn {
	c := &netConn{conn: conn}
	c.connCore = connCore{
		w:        conn,
		br:       bufio.NewReader(conn),
		tag:      "net",
		stales:   stales,
		sent:     sent,
		recvd:    recvd,
		classify: classifyNetErr,
		dec:      newResultDecoder(),
	}
	// The per-frame deadline re-arms before every read: any frame —
	// heartbeat or response — proves the worker is alive, so only silence
	// trips it.
	c.arm = func(read bool) {
		if to := pol.FrameTimeout; to > 0 {
			if read {
				conn.SetReadDeadline(time.Now().Add(to))
			} else {
				conn.SetWriteDeadline(time.Now().Add(to))
			}
		}
	}
	return c
}

// netConn is the TCP slot transport: connCore over a dialed connection,
// with per-frame deadlines as the liveness clock.
type netConn struct {
	connCore
	conn net.Conn
}

func (c *netConn) interrupt() { c.conn.Close() }
func (c *netConn) abort()     { c.conn.Close() }
func (c *netConn) shutdown()  { c.conn.Close() }

// classifyNetErr maps a transport error to the supervisor's failure
// taxonomy: a network timeout (per-frame deadline — i.e. a partition) is
// failTimeout, anything else is the connection-dropped analogue of a
// process exit.
func classifyNetErr(err error) failKind {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
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
	// replacement is the next generation, mirroring subprocess restarts.
	ChaosSpec string
	// Extra specs are resolvable by name ahead of the registry, mirroring
	// ServeWorker — frontends pass their flag-built ad-hoc specs here.
	Extra []Spec
	// Heartbeat is the liveness-frame interval; 0 means heartbeatEvery,
	// negative disables heartbeats (tests only — a real worker without
	// heartbeats is indistinguishable from a partitioned one on long seeds).
	Heartbeat time.Duration
	// Log is the diagnostics sink; nil means os.Stderr.
	Log io.Writer
}

// ServeNet serves the shard worker protocol on ln until the listener
// closes. Each accepted connection is one independent worker session —
// the same session loop ServeWorker runs over stdio, with heartbeats on —
// served concurrently; a malformed chaos schedule is a startup error.
func ServeNet(ln net.Listener, o NetServeOptions) error {
	if _, err := ParseChaos(o.ChaosSpec, 0); err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	hb := o.Heartbeat
	if hb == 0 {
		hb = heartbeatEvery
	}
	logw := o.Log
	if logw == nil {
		logw = os.Stderr
	}
	byName := specIndex(o.Extra)
	for gen := 0; ; gen++ {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("worker: accept: %w", err)
		}
		chaos, _ := ParseChaos(o.ChaosSpec, gen) // validated above
		s := session{chaos: chaos, byName: byName, heartbeat: hb, log: logw, gen: gen}
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
	logw := o.Log
	if logw == nil {
		logw = os.Stderr
	}
	fmt.Fprintf(logw, "worker: serving on %s\n", ln.Addr())
	return ServeNet(ln, o)
}
