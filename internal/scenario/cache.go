package scenario

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Cache decorates an Executor with a content-keyed result cache: each
// (spec name, params digest, seed) maps to one entry holding the
// codec-encoded Result, nested under the code-version digest — so a
// repeated sweep (figgen reruns, macro benchmarking, CI) recomputes only
// the seeds it has never seen on this exact build, and a code change
// silently starts a fresh keyspace instead of serving stale numbers.
//
// Entries live in the local directory Dir, or — when Addr is set — in a
// shared remote store speaking GET/PUT over the same binary frame codec
// the shard workers use (ServeStore), so a whole fleet fills one cache. The
// remote store is an optimization, never a dependency: on any store
// outage the process degrades to Dir for the rest of its life, counting
// the outage in Stats, and the run completes on recomputed (and locally
// cached) results.
//
// Layout: <root>/<code-digest>/<spec-name>-<params-digest>/seed<N>.bin —
// identical locally and remotely, so a store directory can be seeded
// from, or inspected as, an ordinary cache dir. Wiping the cache is
// `rm -rf`; old code versions are just dead subtrees. Because the codec
// round-trips bit-exactly and emission stays in seed order, a warm run's
// aggregate is bit-identical to a cold run's — the cross-backend
// equivalence test pins exactly that.
type Cache struct {
	Inner Executor // backend that computes misses
	Dir   string   // local cache root; the fallback when Addr is set
	Addr  string   // remote result store address (host:port); empty means local-only

	once sync.Once
	st   entryStore

	hits, misses, writeErrs, outages atomic.Int64
}

// CacheStats reports cache effectiveness for one process. WriteErrs counts
// entries that could not be written back — each one costs future hits, not
// correctness, since the run used the freshly computed Result. Outages
// counts remote-store failures that switched the process to its local
// fallback dir (at most one per Cache: the first failure latches).
type CacheStats struct {
	Hits, Misses, WriteErrs, Outages int64
	Dir                              string
	Addr                             string
}

func (s CacheStats) String() string {
	suffix := fmt.Sprintf("(dir %s)", s.Dir)
	if s.Addr != "" {
		suffix = fmt.Sprintf("%d store outages (store %s, dir %s)", s.Outages, s.Addr, s.Dir)
	}
	return fmt.Sprintf("cache: %d hits, %d misses, %d write errors %s", s.Hits, s.Misses, s.WriteErrs, suffix)
}

// Stats returns the counters accumulated so far.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), WriteErrs: c.writeErrs.Load(),
		Outages: c.outages.Load(), Dir: c.Dir, Addr: c.Addr}
}

// entryStore is where cache entries live: the local directory, or the
// remote store client (which itself falls back to the local directory on
// outage). Keys are entryRel-shaped slash-separated relative paths; load
// treats every failure as a miss.
type entryStore interface {
	load(rel string) (Result, bool)
	store(rel string, res Result) error
}

// entries resolves the configured entry store once per Cache.
func (c *Cache) entries() entryStore {
	c.once.Do(func() {
		disk := diskStore{root: c.Dir}
		if c.Addr == "" {
			c.st = disk
			return
		}
		c.st = &remoteStore{addr: c.Addr, fallback: disk, outages: &c.outages}
	})
	return c.st
}

// Run serves every cached seed from the store, delegates only the misses
// to the inner backend, writes their results back, and emits the full
// seed-ordered stream. Emission is progressive: hits are loaded only when
// their seed-ordered turn comes up (a classification pass decides
// hit/miss up front, but discards the decoded Result), so a sweep over
// thousands of seeds holds the inner backend's out-of-order window —
// never the whole result set — matching the Runner's streaming contract.
func (c *Cache) Run(spec Spec, seeds []int64, emit Emit) error {
	st := c.entries()
	var missKI []int
	for ki, seed := range seeds {
		if _, ok := st.load(entryRel(spec, seed)); ok {
			c.hits.Add(1)
		} else {
			missKI = append(missKI, ki)
		}
	}

	// emitHitsThrough replays the cached seeds in [cursor, limit) — the
	// hit run between two misses. The entry was decodable moments ago and
	// store never leaves torn files, so a failure here means the cache was
	// wiped mid-run: fail loudly rather than emit a gap.
	cursor := 0
	emitHitsThrough := func(limit int) error {
		for ; cursor < limit; cursor++ {
			res, ok := st.load(entryRel(spec, seeds[cursor]))
			if !ok {
				return fmt.Errorf("cache: %s seed %d: entry vanished mid-run (cache wiped?)", spec.Name, seeds[cursor])
			}
			emit(cursor, res)
		}
		return nil
	}

	if len(missKI) > 0 {
		missSeeds := make([]int64, len(missKI))
		for i, ki := range missKI {
			missSeeds[i] = seeds[ki]
		}
		var emitErr, storeErr error
		err := c.Inner.Run(spec, missSeeds, func(mi int, res Result) {
			c.misses.Add(1)
			if err := st.store(entryRel(spec, missSeeds[mi]), res); err != nil {
				c.writeErrs.Add(1)
				if storeErr == nil {
					storeErr = err
				}
			}
			if emitErr != nil {
				return
			}
			// The inner backend emits misses in seed order, so the hits
			// before this miss are exactly [cursor, missKI[mi]).
			if emitErr = emitHitsThrough(missKI[mi]); emitErr == nil {
				emit(missKI[mi], res)
				cursor = missKI[mi] + 1
			}
		})
		if err != nil {
			return err
		}
		if emitErr != nil {
			return emitErr
		}
		if storeErr != nil {
			// A write failure costs future hits, not correctness: the run
			// itself used the freshly computed results.
			fmt.Fprintf(os.Stderr, "scenario: cache write failed: %v\n", storeErr)
		}
	}
	return emitHitsThrough(len(seeds))
}

// Close releases the store connection (if remote) and closes the inner
// backend if it holds resources.
func (c *Cache) Close() error {
	if rs, ok := c.st.(*remoteStore); ok {
		rs.close()
	}
	if cl, ok := c.Inner.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// entryRel is one entry's store key: a slash-separated relative path,
// identical in the local directory layout and the remote store. The spec
// component pairs the readable name with a digest of (name, params), so
// ad-hoc specs with equal names but different CLI parameters never
// collide; the leading component keys the whole space by code version.
func entryRel(spec Spec, seed int64) string {
	sum := sha256.Sum256([]byte(spec.Name + "\x00" + spec.Params))
	return fmt.Sprintf("%s/%s-%x/seed%d.bin", CodeVersion()[:16], spec.Name, sum[:6], seed)
}

// diskStore is the local-directory entry store.
type diskStore struct{ root string }

func (d diskStore) path(rel string) string {
	return filepath.Join(d.root, filepath.FromSlash(rel))
}

// load reads one cached Result; any failure (missing, unreadable,
// corrupt) is a miss, never an error — the backend recomputes.
func (d diskStore) load(rel string) (Result, bool) {
	data, err := os.ReadFile(d.path(rel))
	if err != nil {
		return Result{}, false
	}
	res, err := DecodeResult(data)
	if err != nil {
		return Result{}, false
	}
	return res, true
}

// store writes one Result atomically (temp file + rename), so a crashed
// or concurrent run never leaves a torn entry for load to trip on.
func (d diskStore) store(rel string, res Result) error {
	data, err := EncodeResult(res)
	if err != nil {
		return err
	}
	path := d.path(rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
