package scenario

import (
	"bufio"
	"math"
	"net"
	"reflect"
	"testing"
)

// startStoreServer runs an in-process result store for the test and
// returns its address plus the backing directory.
func startStoreServer(t *testing.T) (addr, dir string) {
	t.Helper()
	dir = t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeStore(ln, dir)
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), dir
}

// storeExchange sends one store request frame on conn and returns the
// parsed reply.
func storeExchange(t *testing.T, conn net.Conn, br *bufio.Reader, frame []byte) storeMsg {
	t.Helper()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	payload, err := readRawFrame(br, &buf)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := parseStoreMsg(payload, true)
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// rawPutFrame builds a PUT frame around arbitrary payload bytes, which
// need not be a valid Result encoding.
func rawPutFrame(key string, data []byte) []byte {
	var fs frameScratch
	fs.begin(frameStorePut)
	fs.buf = appendLenBytes(fs.buf, key)
	fs.buf = append(fs.buf, data...)
	return fs.finish()
}

// TestRemoteStoreColdThenWarm: a cold run fills the remote store; a second
// process (fresh local dir, dead inner backend) must serve every seed from
// the remote store, bit-identically.
func TestRemoteStoreColdThenWarm(t *testing.T) {
	addr, _ := startStoreServer(t)
	spec := cacheSpec()
	seeds := Seeds(1, 6)

	cold := &Cache{Inner: &Local{Parallel: 2}, Dir: t.TempDir(), Addr: addr}
	coldAggs := mustRun(t, &Runner{KeepPerSeed: true, Executor: cold}, []Spec{spec}, seeds)
	cold.Close()
	if s := cold.Stats(); s.Hits != 0 || s.Misses != int64(len(seeds)) || s.Outages != 0 {
		t.Errorf("cold stats %+v, want 0 hits / %d misses / 0 outages", s, len(seeds))
	}

	// A different "host": separate (empty) local dir, same store. Hits can
	// only come over the wire.
	warm := &Cache{Inner: FailExecutor("remote store missed on a warm run"), Dir: t.TempDir(), Addr: addr}
	warmAggs := mustRun(t, &Runner{KeepPerSeed: true, Executor: warm}, []Spec{spec}, seeds)
	warm.Close()
	if s := warm.Stats(); s.Hits != int64(len(seeds)) || s.Misses != 0 || s.Outages != 0 {
		t.Errorf("warm stats %+v, want %d hits / 0 misses / 0 outages", s, len(seeds))
	}
	if !reflect.DeepEqual(coldAggs[0].Metrics, warmAggs[0].Metrics) {
		t.Errorf("remote warm aggregate differs:\ncold %+v\nwarm %+v", coldAggs[0].Metrics, warmAggs[0].Metrics)
	}
	if !reflect.DeepEqual(coldAggs[0].PerSeed, warmAggs[0].PerSeed) {
		t.Errorf("remote warm per-seed results differ")
	}
}

// TestStoreOutageDegradesToLocalDir is the store-outage acceptance test:
// with the store unreachable the run must complete on recomputed results,
// count the outage and the misses, and leave the local fallback dir warm
// enough that a later run hits without the store.
func TestStoreOutageDegradesToLocalDir(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close() // connection refused from here on

	dir := t.TempDir()
	spec := cacheSpec()
	seeds := Seeds(1, 4)
	c := &Cache{Inner: &Local{Parallel: 2}, Dir: dir, Addr: deadAddr}
	mustRun(t, &Runner{Executor: c}, []Spec{spec}, seeds)
	c.Close()
	s := c.Stats()
	if s.Outages == 0 {
		t.Errorf("store outage not counted: %+v", s)
	}
	if s.Misses != int64(len(seeds)) {
		t.Errorf("outage run should miss (and recompute) every seed: %+v", s)
	}
	if s.WriteErrs != 0 {
		t.Errorf("outage writes must fall back to the local dir, not fail: %+v", s)
	}

	// The fallback dir absorbed the writes: a second outage run hits locally.
	again := &Cache{Inner: FailExecutor("local fallback missed"), Dir: dir, Addr: deadAddr}
	mustRun(t, &Runner{Executor: again}, []Spec{spec}, seeds)
	again.Close()
	if s := again.Stats(); s.Hits != int64(len(seeds)) {
		t.Errorf("fallback dir not warm after outage run: %+v", s)
	}
}

// TestStoreRejectsEscapingKeys: the store must refuse any key that could
// leave its root.
func TestStoreRejectsEscapingKeys(t *testing.T) {
	addr, dir := startStoreServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var fs frameScratch
	for _, key := range []string{"", "/abs/path", "../escape", "a/../../b", "a//b", "a/./b", `a\b`} {
		if reply := storeExchange(t, conn, br, fs.storeGetFrame(key)); reply.ftype != frameStoreError {
			t.Errorf("key %q was not rejected: %+v", key, reply)
		}
	}
	// And a valid key still works end to end on the same connection.
	res := Result{Name: "x", Values: map[string]float64{"v": 1}}
	if reply := storeExchange(t, conn, br, fs.storePutFrame("ok/entry.bin", res)); reply.ftype == frameStoreError {
		t.Fatalf("valid put rejected: %s", reply.errMsg)
	}
	if _, ok := (diskStore{root: dir}).load("ok/entry.bin"); !ok {
		t.Error("valid put did not land in the store dir")
	}
}

// TestStoreUndecodablePutRejected: a put whose payload is not a valid
// encoded Result must be refused, never stored.
func TestStoreUndecodablePutRejected(t *testing.T) {
	addr, dir := startStoreServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if reply := storeExchange(t, conn, br, rawPutFrame("bad/entry.bin", []byte("{torn"))); reply.ftype != frameStoreError {
		t.Error("undecodable put was accepted")
	}
	if _, ok := (diskStore{root: dir}).load("bad/entry.bin"); ok {
		t.Error("undecodable put landed in the store dir")
	}
}

// TestStoreBinaryRoundTripsOverWire: a binary-codec entry survives the
// store protocol end to end — PUT re-encodes it to disk, GET returns
// bytes that decode bit-identically, hostile floats included.
func TestStoreBinaryRoundTripsOverWire(t *testing.T) {
	addr, _ := startStoreServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	res := Result{
		Name:  "bin",
		Table: "t",
		Values: map[string]float64{
			"nan":     math.NaN(),
			"neginf":  math.Inf(-1),
			"negzero": math.Copysign(0, -1),
		},
	}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != resultMagic {
		t.Fatalf("EncodeResult is not the binary codec (first byte %#x)", data[0])
	}
	const key = "v1/bin-000000/seed1.bin"
	if reply := storeExchange(t, conn, br, rawPutFrame(key, data)); reply.ftype == frameStoreError {
		t.Fatalf("binary put rejected: %s", reply.errMsg)
	}

	var fs frameScratch
	getResp := storeExchange(t, conn, br, fs.storeGetFrame(key))
	if getResp.ftype != frameStoreFound {
		t.Fatalf("binary get failed: %+v", getResp)
	}
	got, err := DecodeResult(getResp.result)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != res.Name || got.Table != res.Table || len(got.Values) != len(res.Values) {
		t.Fatalf("round trip changed shape: %+v vs %+v", got, res)
	}
	for k, want := range res.Values {
		if math.Float64bits(got.Values[k]) != math.Float64bits(want) {
			t.Errorf("%s: %#x, want %#x", k, math.Float64bits(got.Values[k]), math.Float64bits(want))
		}
	}
}
