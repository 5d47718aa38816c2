package scenario

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
)

// TestCodecRoundTripBitExact pins the codec contract the shard protocol
// and result cache rely on: every float64 — including the values plain
// JSON cannot carry — survives encode/decode with its exact bit pattern,
// and tables round-trip byte-for-byte.
func TestCodecRoundTripBitExact(t *testing.T) {
	in := Result{
		Name:  "codec",
		Table: "line1\nµ ± ┌─┐ \"quoted\" \\backslash\ttab",
		Values: map[string]float64{
			"plain":   3.25,
			"tiny":    5e-324, // smallest denormal
			"huge":    math.MaxFloat64,
			"negzero": math.Copysign(0, -1),
			"posinf":  math.Inf(1),
			"neginf":  math.Inf(-1),
			"nan":     math.NaN(),
			"pi":      math.Pi,
		},
	}
	data, err := EncodeResult(in)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != resultMagic || data[1] != resultVersion {
		t.Fatalf("encoding header = %#x %#x, want magic %#x version %d", data[0], data[1], resultMagic, resultVersion)
	}
	out, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Table != in.Table {
		t.Errorf("name/table changed: %+v", out)
	}
	if len(out.Values) != len(in.Values) {
		t.Fatalf("value count %d, want %d", len(out.Values), len(in.Values))
	}
	for k, want := range in.Values {
		got, ok := out.Values[k]
		if !ok {
			t.Errorf("value %q missing", k)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: bits %#x, want %#x", k, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestCodecDeterministicBytes: equal Results must encode to identical
// bytes (the cache compares freshness by file content identity across
// processes, and map iteration order must not leak in).
func TestCodecDeterministicBytes(t *testing.T) {
	mk := func() Result {
		return Result{Name: "d", Table: "t", Values: map[string]float64{
			"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6, "g": 7, "h": 8,
		}}
	}
	first, err := EncodeResult(mk())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := EncodeResult(mk())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("encoding not deterministic:\n%x\n%x", first, again)
		}
	}
}

// codecFixture is a metro-experiment-sized Result: a rendered table and a
// dozen metrics, including the float specials (NaN, ±Inf, −0, the smallest
// subnormal) the codec must carry bit-exactly.
func codecFixture() Result {
	table := "metric                         value\n"
	for i := 0; i < 12; i++ {
		table += "  some-metric-name-goes-here   123456.789012\n"
	}
	return Result{
		Name:  "codec-fixture",
		Table: table,
		Values: map[string]float64{
			"energy_mj":       1234.5678,
			"throughput_mbps": 42.125,
			"latency_ms":      math.Copysign(0, -1),
			"drop_rate":       math.NaN(),
			"sleep_frac":      0.9999999999999999,
			"wake_count":      81920,
			"beacon_misses":   math.Inf(1),
			"queue_peak":      math.Inf(-1),
			"airtime_frac":    0.3333333333333333,
			"retries":         17,
			"goodput_mbps":    41.875,
			"idle_mj":         5e-324,
		},
	}
}

// TestCodecSteadyStateAllocatesNothing pins the codec's scratch-reuse
// contract, the configuration a shard connection runs at: encoding into a
// reused buffer with a reused encoder, and decoding with an interning
// decoder into a reused Result, allocate nothing once warm.
func TestCodecSteadyStateAllocatesNothing(t *testing.T) {
	res := codecFixture()
	wire, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}

	var e resultEncoder
	buf := e.appendResult(nil, res)
	if a := testing.AllocsPerRun(200, func() {
		buf = e.appendResult(buf[:0], res)
	}); a != 0 {
		t.Errorf("appendResult into a reused buffer allocates %v per op, want 0", a)
	}
	if !bytes.Equal(buf, wire) {
		t.Fatal("reused-scratch encoding differs from EncodeResult")
	}

	d := newResultDecoder()
	var out Result
	if err := d.decode(wire, &out, true); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		if err := d.decode(wire, &out, true); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("decode into a reused Result allocates %v per op, want 0", a)
	}
	for k, want := range res.Values {
		if got, ok := out.Values[k]; !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: decoded %v (present %v), want bits %#x", k, got, ok, math.Float64bits(want))
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeResult([]byte("not json")); err == nil {
		t.Error("garbage JSON accepted")
	}
	if _, err := DecodeResult([]byte(`{"name":"x","values":[{"name":"v","bits":"zz"}]}`)); err == nil {
		t.Error("bad bit pattern accepted")
	}
}

// TestDecodeErrorsAreLoudAndTotal pins the codec error contract the
// supervisor's decode detector depends on: truncated encodings, version
// skew, trailing garbage, oversized length prefixes and JSON documents
// all fail with an error the caller can classify via
// errors.Is(err, ErrDecode) where the stream (not the transport) is at
// fault — and the failed decode returns the zero Result, never a partial
// one.
func TestDecodeErrorsAreLoudAndTotal(t *testing.T) {
	// A JSON document (the pre-binary entry format): ErrDecode, zero Result.
	res, err := DecodeResult([]byte(`{"name":"x","table":"t","values":[` +
		`{"name":"good","bits":"3ff0000000000000"},{"name":"bad","bits":"zz"}]}`))
	if !errors.Is(err, ErrDecode) {
		t.Errorf("garbage bits: err = %v, want ErrDecode", err)
	}
	if res.Name != "" || res.Table != "" || res.Values != nil {
		t.Errorf("partial Result leaked from failed decode: %+v", res)
	}

	// Non-JSON, non-binary payload: ErrDecode.
	if res, err = DecodeResult([]byte("chaos! not json")); !errors.Is(err, ErrDecode) {
		t.Errorf("non-JSON payload: err = %v, want ErrDecode", err)
	} else if res.Name != "" || res.Table != "" || res.Values != nil {
		t.Errorf("partial Result from non-JSON payload: %+v", res)
	}

	// Every proper prefix of a binary encoding is a truncation: ErrDecode,
	// zero Result, no panic.
	enc, err := EncodeResult(Result{Name: "n", Table: "t", Values: map[string]float64{
		"a": 1, "nan": math.NaN(), "inf": math.Inf(1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(enc); i++ {
		res, err := DecodeResult(enc[:i])
		if !errors.Is(err, ErrDecode) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrDecode", i, len(enc), err)
		}
		if res.Name != "" || res.Table != "" || res.Values != nil {
			t.Fatalf("prefix %d/%d leaked a partial Result: %+v", i, len(enc), res)
		}
	}

	// A future version byte: ErrDecode naming the version, not a misparse.
	skew := append([]byte(nil), enc...)
	skew[1] = resultVersion + 1
	if _, err := DecodeResult(skew); !errors.Is(err, ErrDecode) || !strings.Contains(err.Error(), "version") {
		t.Errorf("version skew: err = %v, want ErrDecode naming the version", err)
	}

	// Trailing bytes after the last value: the encoding is length-framed by
	// its frame, so slack means corruption.
	if _, err := DecodeResult(append(append([]byte(nil), enc...), 0)); !errors.Is(err, ErrDecode) {
		t.Errorf("trailing byte: err = %v, want ErrDecode", err)
	}

	// Oversized length prefix: ErrDecode from the frame reader (the stream
	// is corrupt, not merely closed).
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], maxFrame+1)
	var buf []byte
	if _, err := readRawFrame(bytes.NewReader(huge[:]), &buf); !errors.Is(err, ErrDecode) {
		t.Errorf("oversized prefix: err = %v, want ErrDecode", err)
	}

	// Well-framed garbage payload (what the chaos corrupt mode emits): the
	// frame reads fine, the message parse fails with ErrDecode.
	var stream bytes.Buffer
	payload := []byte("chaos! not a frame {{{")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	stream.Write(hdr[:])
	stream.Write(payload)
	p, err := readRawFrame(&stream, &buf)
	if err != nil {
		t.Fatalf("well-framed garbage must read as a frame: %v", err)
	}
	if _, err := parseWireMsg(p); !errors.Is(err, ErrDecode) {
		t.Errorf("garbage payload: err = %v, want ErrDecode", err)
	}

	// Truncation inside a frame is a transport fault, not stream corruption:
	// unexpected EOF, and NOT ErrDecode (the supervisor classifies it as a
	// process death).
	stream.Reset()
	binary.BigEndian.PutUint32(hdr[:], 1024)
	stream.Write(hdr[:])
	stream.WriteString("short")
	_, err = readRawFrame(&stream, &buf)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame: err = %v, want unexpected EOF", err)
	}
	if errors.Is(err, ErrDecode) {
		t.Error("truncated frame misclassified as stream corruption")
	}
}

// TestFrameRoundTrip checks the binary framing layer: request frames,
// per-seed response frames, hello/heartbeat, clean EOF at a boundary vs.
// truncation inside a frame.
func TestFrameRoundTrip(t *testing.T) {
	var fs frameScratch
	var stream bytes.Buffer
	stream.Write(fs.helloFrame())
	stream.Write(fs.heartbeatFrame())
	res := Result{Name: "r", Table: "t", Values: map[string]float64{"nan": math.NaN(), "v": 2.5}}
	stream.Write(fs.resultFrame([]byte("spec-a"), 7, 3, res))
	stream.Write(fs.errorFrame([]byte("spec-b"), -7, 4, "boom"))

	var buf []byte
	read := func() wireMsg {
		t.Helper()
		p, err := readRawFrame(&stream, &buf)
		if err != nil {
			t.Fatal(err)
		}
		m, err := parseWireMsg(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := read(); m.ftype != frameHello || m.version != protoVersion {
		t.Fatalf("hello = %+v", m)
	}
	if m := read(); m.ftype != frameHeartbeat {
		t.Fatalf("heartbeat = %+v", m)
	}
	m := read()
	if m.ftype != frameResult || string(m.spec) != "spec-a" || m.seed != 7 || m.epoch != 3 {
		t.Fatalf("result frame = %+v", m)
	}
	got, err := DecodeResult(m.result)
	if err != nil || got.Name != "r" || !math.IsNaN(got.Values["nan"]) || got.Values["v"] != 2.5 {
		t.Fatalf("embedded result = %+v / %v", got, err)
	}
	m = read()
	if m.ftype != frameError || string(m.spec) != "spec-b" || m.seed != -7 || m.epoch != 4 || string(m.errMsg) != "boom" {
		t.Fatalf("error frame = %+v", m)
	}
	if _, err := readRawFrame(&stream, &buf); err != io.EOF {
		t.Errorf("end of stream: %v, want io.EOF", err)
	}

	// Request frames: the chunk-granular coordinator→worker direction.
	seeds := []int64{1, -7, 1 << 40}
	full := append([]byte(nil), fs.requestFrame("spec-c", "k=2 mode=x", seeds, 9)...)
	req, err := parseWireRequest(full[4:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(req.spec) != "spec-c" || string(req.params) != "k=2 mode=x" || req.epoch != 9 || len(req.seeds) != 3 ||
		req.seeds[0] != 1 || req.seeds[1] != -7 || req.seeds[2] != 1<<40 {
		t.Fatalf("request = %+v", req)
	}
	for i := 1; i < len(full)-4; i++ {
		if _, err := parseWireRequest(full[4:4+i], nil); !errors.Is(err, ErrDecode) {
			t.Fatalf("truncated request %d: err = %v, want ErrDecode", i, err)
		}
	}

	// A stream that loses its tail mid-frame: unexpected EOF, not io.EOF.
	short := bytes.NewReader(full[:len(full)-2])
	if _, err := readRawFrame(short, &buf); err == nil || err == io.EOF {
		t.Errorf("truncated frame: %v, want unexpected-EOF error", err)
	}

	// The retired result-store frame types are not worker messages.
	for ftype := byte(0x06); ftype <= 0x0a; ftype++ {
		if _, err := parseWireMsg([]byte{ftype}); !errors.Is(err, ErrDecode) {
			t.Errorf("frame type 0x%02x: err = %v, want ErrDecode", ftype, err)
		}
	}

}

// newTestConn wraps a canned byte stream, written by a fake worker into
// an in-memory connection, as a coordinator-side session with no frame
// deadline, for driving recv against synthetic worker output.
func newTestConn(t *testing.T, stream []byte) *netConn {
	coord, worker := net.Pipe()
	go func() {
		worker.Write(stream)
		worker.Close()
	}()
	t.Cleanup(func() { coord.Close() }) // unblocks a fake worker whose stream recv left unread
	sh := &Shard{health: ShardHealth{Workers: make([]WorkerHealth, 1)}}
	return (&workerSlot{sh: sh}).newConn(coord)
}

// TestRecvHelloNegotiation pins the version handshake: a worker
// announcing a different protocol version is a terminal failVersion that
// names both versions (the Run ends; no retry could fix a build skew),
// and a response arriving before the hello is a decode fault.
func TestRecvHelloNegotiation(t *testing.T) {
	var fs frameScratch
	res := Result{Name: "r", Values: map[string]float64{"v": 1}}

	// Healthy session: hello, heartbeat noise, then the response.
	var ok bytes.Buffer
	ok.Write(fs.helloFrame())
	ok.Write(fs.heartbeatFrame())
	ok.Write(fs.resultFrame([]byte("s"), 1, 10, res))
	c := newTestConn(t, ok.Bytes())
	got, kind, err := c.recv("s", 1, 10)
	if err != nil || kind != 0 || got.Values["v"] != 1 {
		t.Fatalf("healthy recv = %+v, %v, %v", got, kind, err)
	}

	// Version skew: terminal, and the error names both versions.
	bad := append([]byte(nil), fs.helloFrame()...)
	bad[len(bad)-1] = protoVersion + 1
	c = newTestConn(t, bad)
	_, kind, err = c.recv("s", 1, 10)
	want := fmt.Sprintf("protocol version %d, coordinator version %d", protoVersion+1, protoVersion)
	if kind != failVersion || !kind.terminal() || err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("version skew: kind %v err %v, want terminal failVersion naming %q", kind, err, want)
	}

	// A response with no hello first: a decode fault.
	c = newTestConn(t, append([]byte(nil), fs.resultFrame([]byte("s"), 1, 10, res)...))
	if _, kind, err := c.recv("s", 1, 10); kind != failDecode || !errors.Is(err, ErrDecode) {
		t.Errorf("response before hello: kind %v err %v, want failDecode/ErrDecode", kind, err)
	}
}

// TestRecvSkipsStaleFrames: frames whose (epoch, spec, seed) does not
// match the expected response are counted and skipped — the zombie-replay
// defense — and the live exchange still completes.
func TestRecvSkipsStaleFrames(t *testing.T) {
	var fs frameScratch
	res := Result{Name: "r", Values: map[string]float64{"v": 42}}
	var stream bytes.Buffer
	stream.Write(fs.helloFrame())
	stream.Write(fs.resultFrame([]byte("s"), 1, 9, res))  // stale epoch
	stream.Write(fs.errorFrame([]byte("s"), 2, 10, "x"))  // stale seed
	stream.Write(fs.resultFrame([]byte("t"), 1, 10, res)) // stale spec
	stream.Write(fs.resultFrame([]byte("s"), 1, 10, res)) // the live one
	c := newTestConn(t, stream.Bytes())
	got, kind, err := c.recv("s", 1, 10)
	if err != nil || kind != 0 || got.Values["v"] != 42 {
		t.Fatalf("recv = %+v, %v, %v", got, kind, err)
	}
	if n := c.w.sh.Health().Workers[0].Stales; n != 3 {
		t.Errorf("stale frames counted = %d, want 3", n)
	}
}
