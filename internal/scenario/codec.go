package scenario

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// ErrDecode marks stream-corruption failures: an oversized frame header,
// a frame whose payload is not a protocol message, a protocol-version
// mismatch in a worker hello, or a Result whose encoding does not parse.
// The shard supervisor classifies lease failures wrapping ErrDecode as
// corrupt-frame faults (the worker is killed and the chunk retried)
// rather than process deaths. It is never returned for plain transport
// errors (EOF, broken pipe).
var ErrDecode = errors.New("decode error")

// The result codec. Results cross three boundaries that must not change a
// single bit: the shard worker protocol (subprocess stdout / TCP → parent),
// the result-store protocol and the on-disk result cache (cold write →
// warm read). The wire form is a compact binary encoding:
// length-delimited name/table strings and name-sorted values carried as
// raw math.Float64bits — so bit-exactness (NaN, the infinities, signed
// zero, denormals) is trivially true, with no hex round trip and no fmt in
// the hot path. Encoding the same Result twice yields identical bytes, and
// decode(encode(r)) reproduces every float bit-for-bit. The only
// normalization is that an empty Values map decodes as nil.

// Binary Result layout (after the two-byte magic/version header): each
// string is uvarint length + bytes, each value is its uvarint-length name
// followed by 8 bytes of big-endian Float64bits, values name-sorted:
//
//	[resultMagic][resultVersion]
//	[name][table][uvarint count]([valueName][8-byte bits])*
const (
	resultMagic   = 0xF5
	resultVersion = 1
)

// protoVersion is the worker wire-protocol version. A worker announces it
// in the hello frame that opens every session (subprocess and TCP alike);
// the coordinator rejects a mismatch as a decode fault instead of
// misparsing frames from an incompatible build. Version 2 added the spec's
// params to the chunk request.
const protoVersion = 2

// Worker-protocol frame types: the first payload byte of every binary
// frame. Requests are chunk-granular (one frame carries a whole seed
// chunk); the worker answers with one result or error frame per seed,
// written together once the chunk is done.
const (
	frameHello     = 0x01 // worker → coordinator: [type][protoVersion]
	frameRequest   = 0x02 // coordinator → worker: [type][epoch][spec][params][uvarint n]([varint seed])*
	frameResult    = 0x03 // worker → coordinator: [type][epoch][spec][varint seed][binary Result]
	frameError     = 0x04 // worker → coordinator: [type][epoch][spec][varint seed][msg]
	frameHeartbeat = 0x05 // worker → coordinator: [type] — liveness only
)

// Result-store frame types (ServeStore and its remoteStore client): each
// request frame is answered by exactly one reply frame. Keys are
// entryRel-shaped paths; Results travel in the binary codec below, and the
// receiver decodes them, so an undecodable PUT is refused, not stored.
const (
	frameStoreGet   = 0x06 // client → store: [type][uvarint len][key]
	frameStorePut   = 0x07 // client → store: [type][uvarint len][key][binary Result]
	frameStoreFound = 0x08 // store → client: [type][binary Result] — the GET's entry
	frameStoreOK    = 0x09 // store → client: [type] — GET: no such entry (a miss); PUT: stored
	frameStoreError = 0x0a // store → client: [type][uvarint len][message] — bad key, undecodable PUT, failed write
)

// resultEncoder appends binary Result encodings, reusing its name-sort
// scratch so steady-state encoding does not allocate.
type resultEncoder struct {
	names []string
}

// appendResult appends the binary encoding of r to dst and returns the
// extended slice.
func (e *resultEncoder) appendResult(dst []byte, r Result) []byte {
	dst = append(dst, resultMagic, resultVersion)
	dst = appendLenBytes(dst, r.Name)
	dst = appendLenBytes(dst, r.Table)
	e.names = e.names[:0]
	for k := range r.Values {
		e.names = append(e.names, k)
	}
	slices.Sort(e.names)
	dst = binary.AppendUvarint(dst, uint64(len(e.names)))
	for _, k := range e.names {
		dst = appendLenBytes(dst, k)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Values[k]))
	}
	return dst
}

// maxIntern caps a decoder's string-intern table. Metric and spec names
// repeat across every seed of a sweep, so interning makes steady-state
// decoding allocation-free; the cap keeps a hostile or pathological
// stream from growing the table without bound.
const maxIntern = 4096

// resultDecoder decodes binary Results. A zero-value decoder works and
// allocates its strings fresh; newResultDecoder returns one with a string
// intern table, the per-connection form whose steady-state decodes reuse
// every repeated name.
type resultDecoder struct {
	tab map[string]string
}

func newResultDecoder() *resultDecoder {
	return &resultDecoder{tab: make(map[string]string, 64)}
}

// intern returns b as a string, reusing a previously seen allocation when
// the decoder interns. The map lookup with a []byte-to-string conversion
// key is allocation-free; only first sightings pay.
func (d *resultDecoder) intern(b []byte) string {
	if d.tab == nil {
		return string(b)
	}
	if s, ok := d.tab[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.tab) < maxIntern {
		d.tab[s] = s
	}
	return s
}

// decode parses a binary Result encoding into res. With reuse set, the
// existing res.Values map is cleared and refilled and the table string is
// interned too — the zero-allocation steady state that
// TestCodecSteadyStateAllocatesNothing pins; callers own the aliasing.
// Without reuse, res gets a fresh map and an owned table string (names and
// keys still intern: they are immutable and shared by design). Every
// malformed input fails with ErrDecode and leaves *res zero.
func (d *resultDecoder) decode(data []byte, res *Result, reuse bool) error {
	fail := func(msg string) error {
		*res = Result{}
		return fmt.Errorf("result codec: %w: %s", ErrDecode, msg)
	}
	if len(data) < 2 || data[0] != resultMagic {
		return fail("not a binary result encoding")
	}
	if data[1] != resultVersion {
		return fail(fmt.Sprintf("binary result version %d, want %d", data[1], resultVersion))
	}
	b := data[2:]
	name, b, ok := getLenBytes(b)
	if !ok {
		return fail("truncated name")
	}
	table, b, ok := getLenBytes(b)
	if !ok {
		return fail("truncated table")
	}
	count, b, ok := getUvarint(b)
	if !ok || count > uint64(len(b)) {
		// Every value costs ≥ 9 bytes, so count can never exceed the
		// remaining payload — reject before allocating a bogus-sized map.
		return fail("bad value count")
	}
	out := Result{Name: d.intern(name)}
	if reuse {
		out.Table = d.intern(table)
		out.Values = res.Values
		if out.Values == nil {
			out.Values = make(map[string]float64, count)
		}
		clear(out.Values)
	} else {
		out.Table = string(table)
		if count > 0 {
			out.Values = make(map[string]float64, count)
		}
	}
	for i := uint64(0); i < count; i++ {
		var key []byte
		key, b, ok = getLenBytes(b)
		if !ok || len(b) < 8 {
			return fail("truncated value")
		}
		out.Values[d.intern(key)] = math.Float64frombits(binary.BigEndian.Uint64(b[:8]))
		b = b[8:]
	}
	if len(b) != 0 {
		return fail("trailing bytes after values")
	}
	*res = out
	return nil
}

// EncodeResult serializes a Result deterministically: identical Results
// produce identical bytes.
func EncodeResult(r Result) ([]byte, error) {
	var enc resultEncoder
	return enc.appendResult(nil, r), nil
}

// DecodeResult reverses EncodeResult bit-exactly.
func DecodeResult(data []byte) (Result, error) {
	var d resultDecoder
	var res Result
	if err := d.decode(data, &res, false); err != nil {
		return Result{}, err
	}
	return res, nil
}

// appendLenBytes appends a length-delimited string: uvarint length, then
// the bytes.
func appendLenBytes(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// getUvarint consumes one uvarint from b.
func getUvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}

// getVarint consumes one signed varint from b.
func getVarint(b []byte) (int64, []byte, bool) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}

// getLenBytes consumes one length-delimited byte string from b. The
// returned slice aliases b.
func getLenBytes(b []byte) ([]byte, []byte, bool) {
	n, b, ok := getUvarint(b)
	if !ok || n > uint64(len(b)) {
		return nil, nil, false
	}
	return b[:n], b[n:], true
}

// maxFrame bounds a protocol frame. A Result is a table string plus a few
// dozen floats — far below this; a larger header means the stream is
// corrupt (e.g. a worker wrote something other than protocol frames to
// stdout), and failing fast beats allocating garbage.
const maxFrame = 64 << 20

// frameScratch assembles binary protocol frames: the 4-byte big-endian
// length header and the payload are built in one reusable buffer, so a
// frame is always emitted with a single Write (no header/payload segment
// split, no torn-frame window between two writes) and steady-state
// encoding never allocates. Each writer (a connection's send path, a
// worker loop, a heartbeat goroutine) owns its own scratch.
type frameScratch struct {
	buf []byte
	enc resultEncoder
}

// begin starts a frame of the given type; finish patches the length
// header and returns the complete frame, valid until the next begin.
func (f *frameScratch) begin(ftype byte) {
	f.buf = append(f.buf[:0], 0, 0, 0, 0, ftype)
}

func (f *frameScratch) finish() []byte {
	binary.BigEndian.PutUint32(f.buf[:4], uint32(len(f.buf)-4))
	return f.buf
}

// helloFrame announces the wire-protocol version — the first frame of
// every worker session, on both transports.
func (f *frameScratch) helloFrame() []byte {
	f.begin(frameHello)
	f.buf = append(f.buf, protoVersion)
	return f.finish()
}

func (f *frameScratch) heartbeatFrame() []byte {
	f.begin(frameHeartbeat)
	return f.finish()
}

// requestFrame is one chunk-granular work order: the spec's name and
// params (empty for a registered spec) and every seed of the lease in a
// single frame, so a lease costs one coordinator→worker round trip however
// many seeds it carries.
func (f *frameScratch) requestFrame(spec, params string, seeds []int64, epoch int64) []byte {
	f.begin(frameRequest)
	f.buf = binary.AppendVarint(f.buf, epoch)
	f.buf = appendLenBytes(f.buf, spec)
	f.buf = appendLenBytes(f.buf, params)
	f.buf = binary.AppendUvarint(f.buf, uint64(len(seeds)))
	for _, s := range seeds {
		f.buf = binary.AppendVarint(f.buf, s)
	}
	return f.finish()
}

// respHeader appends the (epoch, spec, seed) identity every response
// frame echoes for stale-frame matching.
func (f *frameScratch) respHeader(ftype byte, spec []byte, seed, epoch int64) {
	f.begin(ftype)
	f.buf = binary.AppendVarint(f.buf, epoch)
	f.buf = binary.AppendUvarint(f.buf, uint64(len(spec)))
	f.buf = append(f.buf, spec...)
	f.buf = binary.AppendVarint(f.buf, seed)
}

// resultFrame carries one seed's Result, encoded directly into the frame
// buffer — no intermediate Result byte slice.
func (f *frameScratch) resultFrame(spec []byte, seed, epoch int64, res Result) []byte {
	f.respHeader(frameResult, spec, seed, epoch)
	f.buf = f.enc.appendResult(f.buf, res)
	return f.finish()
}

func (f *frameScratch) errorFrame(spec []byte, seed, epoch int64, msg string) []byte {
	f.respHeader(frameError, spec, seed, epoch)
	f.buf = appendLenBytes(f.buf, msg)
	return f.finish()
}

func (f *frameScratch) storeGetFrame(key string) []byte {
	f.begin(frameStoreGet)
	f.buf = appendLenBytes(f.buf, key)
	return f.finish()
}

// storePutFrame encodes res directly into the frame buffer, like
// resultFrame.
func (f *frameScratch) storePutFrame(key string, res Result) []byte {
	f.begin(frameStorePut)
	f.buf = appendLenBytes(f.buf, key)
	f.buf = f.enc.appendResult(f.buf, res)
	return f.finish()
}

func (f *frameScratch) storeFoundFrame(res Result) []byte {
	f.begin(frameStoreFound)
	f.buf = f.enc.appendResult(f.buf, res)
	return f.finish()
}

func (f *frameScratch) storeOKFrame() []byte {
	f.begin(frameStoreOK)
	return f.finish()
}

func (f *frameScratch) storeErrorFrame(msg string) []byte {
	f.begin(frameStoreError)
	f.buf = appendLenBytes(f.buf, msg)
	return f.finish()
}

// readRawFrame reads one length-prefixed frame into *buf (grown on
// demand, reused across calls) and returns the payload, which aliases
// *buf until the next call. A clean EOF at a frame boundary is io.EOF;
// EOF inside a frame is io.ErrUnexpectedEOF; an oversized header is
// ErrDecode.
func readRawFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: protocol frame of %d bytes exceeds the %d-byte limit (corrupt stream?)", ErrDecode, n, maxFrame)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	p := (*buf)[:n]
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return p, nil
}

// wireMsg is one parsed worker→coordinator frame. Byte-slice fields alias
// the frame buffer and are valid until the next read.
type wireMsg struct {
	ftype   byte
	version byte   // frameHello
	epoch   int64  // response frames
	spec    []byte // response frames
	seed    int64  // response frames
	result  []byte // frameResult: binary Result encoding
	errMsg  []byte // frameError
}

// parseWireMsg decodes a worker→coordinator frame payload. Every
// malformed payload — unknown type, truncation, trailing bytes — fails
// with ErrDecode (the fuzz target pins the EOF-or-ErrDecode totality of
// the whole read path).
func parseWireMsg(p []byte) (wireMsg, error) {
	fail := func(msg string) (wireMsg, error) {
		return wireMsg{}, fmt.Errorf("%w: frame payload: %s", ErrDecode, msg)
	}
	if len(p) == 0 {
		return fail("empty frame")
	}
	m := wireMsg{ftype: p[0]}
	b := p[1:]
	switch m.ftype {
	case frameHello:
		if len(b) != 1 {
			return fail("malformed hello")
		}
		m.version = b[0]
		return m, nil
	case frameHeartbeat:
		if len(b) != 0 {
			return fail("malformed heartbeat")
		}
		return m, nil
	case frameResult, frameError:
		var ok bool
		if m.epoch, b, ok = getVarint(b); !ok {
			return fail("truncated epoch")
		}
		if m.spec, b, ok = getLenBytes(b); !ok {
			return fail("truncated spec")
		}
		if m.seed, b, ok = getVarint(b); !ok {
			return fail("truncated seed")
		}
		if m.ftype == frameResult {
			if len(b) == 0 {
				return fail("empty result")
			}
			m.result = b
			return m, nil
		}
		if m.errMsg, b, ok = getLenBytes(b); !ok || len(b) != 0 {
			return fail("malformed error message")
		}
		return m, nil
	default:
		return fail(fmt.Sprintf("unknown frame type 0x%02x", m.ftype))
	}
}

// wireRequest is one parsed coordinator→worker chunk request. spec and
// params alias the frame buffer; seeds alias the caller's scratch.
type wireRequest struct {
	epoch  int64
	spec   []byte
	params []byte
	seeds  []int64
}

// parseWireRequest decodes a chunk request payload, appending the seeds
// to the scratch slice (pass a reused seeds[:0]).
func parseWireRequest(p []byte, scratch []int64) (wireRequest, error) {
	fail := func(msg string) (wireRequest, error) {
		return wireRequest{}, fmt.Errorf("%w: request frame: %s", ErrDecode, msg)
	}
	if len(p) == 0 || p[0] != frameRequest {
		return fail("not a request frame")
	}
	var req wireRequest
	b := p[1:]
	var ok bool
	if req.epoch, b, ok = getVarint(b); !ok {
		return fail("truncated epoch")
	}
	if req.spec, b, ok = getLenBytes(b); !ok {
		return fail("truncated spec")
	}
	if req.params, b, ok = getLenBytes(b); !ok {
		return fail("truncated params")
	}
	count, b, ok := getUvarint(b)
	if !ok || count > uint64(len(b))+1 {
		// Every seed costs ≥ 1 byte (count may be 0): bound before growing
		// the scratch from a hostile header.
		return fail("bad seed count")
	}
	req.seeds = scratch
	for i := uint64(0); i < count; i++ {
		var s int64
		if s, b, ok = getVarint(b); !ok {
			return fail("truncated seed")
		}
		req.seeds = append(req.seeds, s)
	}
	if len(b) != 0 {
		return fail("trailing bytes after seeds")
	}
	return req, nil
}

// storeMsg is one parsed result-store frame. Byte-slice fields alias the
// frame buffer and are valid until the next read.
type storeMsg struct {
	ftype  byte
	key    []byte // GET, PUT
	result []byte // PUT, found: binary Result encoding, still undecoded
	errMsg []byte // error
}

// parseStoreMsg decodes a result-store frame payload travelling in the
// given direction (reply: store → client). Every malformed payload —
// unknown type, a frame of the other direction, truncation, trailing
// bytes — fails with ErrDecode.
func parseStoreMsg(p []byte, reply bool) (storeMsg, error) {
	fail := func(msg string) (storeMsg, error) {
		return storeMsg{}, fmt.Errorf("%w: store frame: %s", ErrDecode, msg)
	}
	if len(p) == 0 {
		return fail("empty frame")
	}
	m := storeMsg{ftype: p[0]}
	b := p[1:]
	var ok bool
	switch {
	case !reply && m.ftype == frameStoreGet:
		if m.key, b, ok = getLenBytes(b); !ok || len(b) != 0 {
			return fail("malformed get")
		}
	case !reply && m.ftype == frameStorePut:
		if m.key, b, ok = getLenBytes(b); !ok || len(b) == 0 {
			return fail("malformed put")
		}
		m.result = b
	case reply && m.ftype == frameStoreFound:
		if len(b) == 0 {
			return fail("empty result")
		}
		m.result = b
	case reply && m.ftype == frameStoreOK:
		if len(b) != 0 {
			return fail("malformed ok")
		}
	case reply && m.ftype == frameStoreError:
		if m.errMsg, b, ok = getLenBytes(b); !ok || len(b) != 0 {
			return fail("malformed error message")
		}
	default:
		return fail(fmt.Sprintf("unexpected frame type 0x%02x", m.ftype))
	}
	return m, nil
}
