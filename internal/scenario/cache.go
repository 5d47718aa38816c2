package scenario

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Cache decorates an Executor with a content-keyed result cache: each
// (spec name, params digest, seed) maps to one entry holding the
// codec-encoded Result, nested under the code-version digest — so a
// repeated sweep (figgen reruns, macro benchmarking, CI) recomputes only
// the seeds it has never seen on this exact build, and a code change
// silently starts a fresh keyspace instead of serving stale numbers.
//
// Entries live in the directory Dir. Each entry is written to a temp file
// and renamed into place, so coordinators that point Dir at one shared
// directory fill one cache together: concurrent writers never tear an
// entry, and two writers of the same entry write the same bytes.
//
// Layout: <root>/<code-digest>/<spec-name>-<params-digest>/seed<N>.bin.
// Wiping the cache is `rm -rf`; old code versions are just dead subtrees.
// Because the codec round-trips bit-exactly and emission stays in seed
// order, a warm run's aggregate is bit-identical to a cold run's — the
// cross-backend equivalence test pins exactly that.
type Cache struct {
	Inner Executor // backend that computes misses
	Dir   string   // cache root

	hits, misses, writeErrs atomic.Int64
}

// CacheStats reports cache effectiveness for one process. WriteErrs counts
// entries that could not be written back — each one costs future hits, not
// correctness, since the run used the freshly computed Result.
type CacheStats struct {
	Hits, Misses, WriteErrs int64
	Dir                     string
}

func (s CacheStats) String() string {
	return fmt.Sprintf("cache: %d hits, %d misses, %d write errors (dir %s)", s.Hits, s.Misses, s.WriteErrs, s.Dir)
}

// Stats returns the counters accumulated so far.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), WriteErrs: c.writeErrs.Load(), Dir: c.Dir}
}

// Run serves every cached seed from Dir, delegates only the misses to
// the inner backend, writes their results back, and emits the full
// seed-ordered stream. Emission is progressive: hits are loaded only when
// their seed-ordered turn comes up (a classification pass decides
// hit/miss up front, but discards the decoded Result), so a sweep over
// thousands of seeds holds the inner backend's out-of-order window —
// never the whole result set — matching the Runner's streaming contract.
func (c *Cache) Run(spec Spec, seeds []int64, emit Emit) error {
	st := diskStore{root: c.Dir}
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

// Close closes the inner backend if it holds resources.
func (c *Cache) Close() error {
	if cl, ok := c.Inner.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// entryRel is one entry's key: a slash-separated path relative to Dir.
// The spec component pairs the readable name with a digest of (name,
// params), so ad-hoc specs with equal names but different CLI parameters
// never collide; the leading component keys the whole space by code
// version.
func entryRel(spec Spec, seed int64) string {
	sum := sha256.Sum256([]byte(spec.Name + "\x00" + spec.Params))
	return fmt.Sprintf("%s/%s-%x/seed%d.bin", CodeVersion()[:16], spec.Name, sum[:6], seed)
}

// diskStore is the directory that holds cache entries.
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
