package scenario

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// FuzzDecodeFrame fuzzes the codec layers every transport shares — the
// length-prefixed frame reader, the worker and result-store frame-payload
// parsers for both directions, and the binary Result codec — with the
// totality contract the supervisor depends on: any mutation of the byte
// stream yields ErrDecode (corruption, including a version-byte mismatch)
// or io.EOF/io.ErrUnexpectedEOF (truncation), a zero Result, and never a
// panic or a partially decoded value surfacing as data.
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: the codec_test.go shapes — hostile floats, empty values,
	// framed streams, version skew, truncations, garbage, an oversized
	// header — plus every store frame and truncated store frames.
	hostile := Result{
		Name:  "hostile",
		Table: "t",
		Values: map[string]float64{
			"nan":     math.NaN(),
			"posinf":  math.Inf(1),
			"neginf":  math.Inf(-1),
			"negzero": math.Copysign(0, -1),
			"tiny":    5e-324,
		},
	}
	enc, err := EncodeResult(hostile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	empty, _ := EncodeResult(Result{Name: "empty"})
	f.Add(empty)
	skew := append([]byte(nil), enc...)
	skew[1] = resultVersion + 1
	f.Add(skew)

	var fs frameScratch
	resp := append([]byte(nil), fs.resultFrame([]byte("s"), 7, 3, hostile)...)
	f.Add(resp)
	stream := append(append([]byte(nil), fs.helloFrame()...), resp...)
	stream = append(stream, fs.heartbeatFrame()...)
	stream = append(stream, fs.errorFrame([]byte("s"), 8, 3, "boom")...)
	f.Add(stream)
	badHello := append([]byte(nil), fs.helloFrame()...)
	badHello[len(badHello)-1] = protoVersion + 1 // version-byte mismatch
	f.Add(badHello)
	f.Add(append([]byte(nil), fs.requestFrame("spec", "", []int64{1, -7, 1 << 40}, 5)...))
	withParams := append([]byte(nil), fs.requestFrame("hotspot",
		"clients=3 scheduler=edf policy=adaptive epoch=10 duration=120 outage=20 outage-len=40", []int64{1, 2}, 6)...)
	f.Add(withParams)
	f.Add(withParams[:20]) // truncated inside the params
	f.Add(append([]byte(nil), fs.requestFrame("psm", "stations=8 rate=16 duration=30", nil, 7)...))
	f.Add(resp[:len(resp)-3])                        // truncated mid-payload
	f.Add(resp[:2])                                  // truncated mid-header
	f.Add([]byte("chaos! not a frame {{{"))          // garbage
	f.Add(append([]byte{0xff, 0xff, 0xff, 0xff}, 1)) // oversized header
	f.Add(append([]byte(nil), fs.storeGetFrame("code/spec-0a/seed1.bin")...))
	put := append([]byte(nil), fs.storePutFrame("code/spec-0a/seed1.bin", hostile)...)
	f.Add(put)
	found := append([]byte(nil), fs.storeFoundFrame(hostile)...)
	f.Add(found)
	f.Add(append([]byte(nil), fs.storeOKFrame()...)) // a GET miss, or a stored PUT
	f.Add(append([]byte(nil), fs.storeErrorFrame("bad key")...))
	f.Add(put[:7])              // truncated inside the key
	f.Add(found[:len(found)-5]) // truncated inside the Result

	f.Fuzz(func(t *testing.T, data []byte) {
		// Result codec: total, loud, all-or-nothing.
		if res, err := DecodeResult(data); err != nil {
			if !errors.Is(err, ErrDecode) {
				t.Errorf("DecodeResult error %v does not wrap ErrDecode", err)
			}
			if res.Name != "" || res.Table != "" || res.Values != nil {
				t.Errorf("DecodeResult leaked a partial Result on error: %+v", res)
			}
		}

		// Frame stream, response direction: drain frames until the stream
		// ends; every failure must be a known truncation/corruption class,
		// and any embedded Result payload must itself decode totally.
		r := bytes.NewReader(data)
		var buf []byte
		dec := newResultDecoder()
		for {
			payload, err := readRawFrame(r, &buf)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrDecode) {
					t.Errorf("readRawFrame error %v is neither EOF-family nor ErrDecode", err)
				}
				break
			}
			m, err := parseWireMsg(payload)
			if err != nil {
				if !errors.Is(err, ErrDecode) {
					t.Errorf("parseWireMsg error %v does not wrap ErrDecode", err)
				}
			} else if m.ftype == frameResult {
				var res Result
				if derr := dec.decode(m.result, &res, false); derr != nil {
					if !errors.Is(derr, ErrDecode) {
						t.Errorf("embedded Result error %v does not wrap ErrDecode", derr)
					}
					if res.Values != nil {
						t.Errorf("embedded Result leaked values on error")
					}
				}
			}
			// Request direction: the worker-side parser must be just as total.
			if _, err := parseWireRequest(payload, nil); err != nil && !errors.Is(err, ErrDecode) {
				t.Errorf("parseWireRequest error %v does not wrap ErrDecode", err)
			}
			// Store frames, both directions: total, and any carried Result
			// decodes totally too.
			for _, reply := range []bool{false, true} {
				sm, err := parseStoreMsg(payload, reply)
				if err != nil {
					if !errors.Is(err, ErrDecode) {
						t.Errorf("parseStoreMsg error %v does not wrap ErrDecode", err)
					}
					if sm.ftype != 0 || sm.key != nil || sm.result != nil || sm.errMsg != nil {
						t.Errorf("parseStoreMsg leaked a partial message on error: %+v", sm)
					}
					continue
				}
				if sm.result != nil {
					if _, derr := DecodeResult(sm.result); derr != nil && !errors.Is(derr, ErrDecode) {
						t.Errorf("store Result error %v does not wrap ErrDecode", derr)
					}
				}
			}
		}
	})
}

// FuzzResultRoundTrip is the codec round-trip property test: any Result —
// any names, any table, any float bit patterns, specials included —
// encodes to bytes that decode back bit-identically, through both the
// owned and the scratch-reuse decode paths.
func FuzzResultRoundTrip(f *testing.F) {
	f.Add("r", "table\n", "a", math.Float64bits(math.NaN()), "b", math.Float64bits(math.Inf(-1)))
	f.Add("", "", "negzero", uint64(0x8000000000000000), "posinf", math.Float64bits(math.Inf(1)))
	f.Add("µ", "┌─┐", "tiny", math.Float64bits(5e-324), "", uint64(0))
	f.Fuzz(func(t *testing.T, name, table, k1 string, bits1 uint64, k2 string, bits2 uint64) {
		in := Result{Name: name, Table: table, Values: map[string]float64{
			k1: math.Float64frombits(bits1),
			k2: math.Float64frombits(bits2),
		}}
		enc, err := EncodeResult(in)
		if err != nil {
			t.Fatal(err)
		}
		check := func(out Result, path string) {
			t.Helper()
			if out.Name != in.Name || out.Table != in.Table || len(out.Values) != len(in.Values) {
				t.Fatalf("%s: round trip changed shape: %+v vs %+v", path, out, in)
			}
			for k, want := range in.Values {
				if math.Float64bits(out.Values[k]) != math.Float64bits(want) {
					t.Errorf("%s: %q bits %#x, want %#x", path, k, math.Float64bits(out.Values[k]), math.Float64bits(want))
				}
			}
		}
		out, err := DecodeResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		check(out, "owned")
		d := newResultDecoder()
		var reused Result
		for i := 0; i < 2; i++ { // twice: the second pass hits the warm intern/reuse path
			if err := d.decode(enc, &reused, true); err != nil {
				t.Fatal(err)
			}
			check(reused, "reuse")
		}
	})
}

// TestFuzzSeedHeaderGuard pins the oversized-header seed case outside the
// fuzzer: a 4 GiB header must fail as ErrDecode before any allocation.
func TestFuzzSeedHeaderGuard(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], 0xffffffff)
	var buf []byte
	if _, err := readRawFrame(bytes.NewReader(hdr[:]), &buf); !errors.Is(err, ErrDecode) {
		t.Errorf("oversized header error = %v, want ErrDecode", err)
	}
}
