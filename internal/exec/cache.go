package exec

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
)

// Key is a content-addressed cache key: an FNV-1a fingerprint over a
// canonical string. The full string is kept alongside the hash so the cache
// can disambiguate fingerprint collisions instead of silently returning the
// wrong entry.
type Key struct {
	hash uint64
	str  string
}

// NewKey fingerprints the canonical parts of a cache key. Parts are joined
// with a NUL separator so ("ab", "c") and ("a", "bc") hash differently.
func NewKey(parts ...string) Key {
	s := strings.Join(parts, "\x00")
	h := fnv.New64a()
	h.Write([]byte(s))
	return Key{hash: h.Sum64(), str: s}
}

// Hash returns the 64-bit fingerprint.
func (k Key) Hash() uint64 { return k.hash }

// String returns the full canonical key string.
func (k Key) String() string { return k.str }

// CacheStats is a point-in-time cache counter snapshot. Misses equals the
// number of distinct keys ever computed, so for a fixed job set it is
// deterministic regardless of worker count or arrival order.
type CacheStats struct {
	Hits, Misses int64
	// Collisions counts distinct keys that shared a 64-bit fingerprint with
	// an earlier key; they are stored and served correctly, just counted.
	Collisions int64

	// Persistent-tier counters, zero when no disk tier is attached. DiskHits
	// are misses in memory that were served from disk without recomputing —
	// a resumed sweep shows DiskHits >= the design points completed before
	// the interruption.
	DiskHits    int64
	DiskWrites  int64
	Quarantined int64
	Evictions   int64
}

func (s CacheStats) String() string {
	total := s.Hits + s.Misses
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(s.Hits) / float64(total)
	}
	out := fmt.Sprintf("cache: %d hits, %d misses (%.0f%% hit rate)", s.Hits, s.Misses, pct)
	if s.DiskHits > 0 || s.DiskWrites > 0 {
		out += fmt.Sprintf("; disk: %d hits, %d writes", s.DiskHits, s.DiskWrites)
	}
	if s.Quarantined > 0 {
		out += fmt.Sprintf(", %d quarantined", s.Quarantined)
	}
	if s.Evictions > 0 {
		out += fmt.Sprintf(", %d evicted", s.Evictions)
	}
	if s.Collisions > 0 {
		out += fmt.Sprintf(", %d fingerprint collisions", s.Collisions)
	}
	return out
}

// Cache is a content-addressed in-memory result cache, safe for concurrent
// use, with an optional disk-backed persistent tier underneath (AttachDisk).
// Entries are bucketed by 64-bit fingerprint and verified against the full
// key string, so colliding fingerprints coexist. Each key computes at most
// once: concurrent requesters of an in-flight key block until the first
// computation finishes (errors are cached too, so a failing point fails
// once, identically, for every requester). A computation that panics is
// never memoized: its entry is discarded, the panic propagates to its own
// requester, and blocked requesters recompute from scratch. A nil *Cache
// disables caching: CachedJSON simply calls compute.
type Cache struct {
	mu      sync.Mutex
	buckets map[uint64][]*cacheEntry
	disk    *DiskCache

	hits       atomic.Int64
	misses     atomic.Int64
	collisions atomic.Int64
}

type cacheEntry struct {
	key      string
	done     chan struct{} // closed once val/err are set, or on panic
	panicked bool          // set (before close) if the computation panicked
	val      any
	err      error
}

// NewCache returns an empty cache with no persistent tier.
func NewCache() *Cache {
	return &Cache{buckets: map[uint64][]*cacheEntry{}}
}

// AttachDisk puts a persistent tier under the cache: lookups that miss in
// memory consult disk before computing, and successful results are written
// through. Attach before use; nil detaches.
// Nil-safe on a nil cache (no-op).
func (c *Cache) AttachDisk(d *DiskCache) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.disk = d
	c.mu.Unlock()
}

// Disk returns the attached persistent tier, if any. Nil-safe.
func (c *Cache) Disk() *DiskCache {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// do returns the cached value for k, computing and storing it on first use.
// Nil-safe: a nil cache just runs compute.
func (c *Cache) do(k Key, decode func([]byte) (any, error), compute func() (any, error)) (any, error) {
	if c == nil {
		return compute()
	}
	first := true
	for {
		c.mu.Lock()
		var e *cacheEntry
		for _, cand := range c.buckets[k.hash] {
			if cand.key == k.str {
				e = cand
				break
			}
		}
		owner := e == nil
		if owner {
			if first && len(c.buckets[k.hash]) > 0 {
				c.collisions.Add(1)
			}
			e = &cacheEntry{key: k.str, done: make(chan struct{})}
			c.buckets[k.hash] = append(c.buckets[k.hash], e)
		}
		disk := c.disk
		c.mu.Unlock()
		if first {
			if owner {
				c.misses.Add(1)
			} else {
				c.hits.Add(1)
			}
			first = false
		}
		if owner {
			return c.fill(k, e, disk, decode, compute)
		}
		<-e.done
		if e.panicked {
			// The owner's computation panicked and the entry was dropped;
			// start over and compute for ourselves.
			continue
		}
		return e.val, e.err
	}
}

// fill computes (or loads from disk) the value for an entry this goroutine
// owns, publishes it, and wakes waiters. If the computation panics the entry
// is un-published first, so the panic is never memoized: the panicking
// requester gets the panic (recovered into a PanicError by Pool.Map), and
// everyone else recomputes.
func (c *Cache) fill(k Key, e *cacheEntry, disk *DiskCache, decode func([]byte) (any, error), compute func() (any, error)) (val any, err error) {
	completed := false
	defer func() {
		if !completed {
			e.panicked = true
			c.drop(k, e)
			close(e.done)
		}
	}()
	if data, ok := disk.Get(k); ok {
		if v, derr := decode(data); derr == nil {
			e.val, e.err = v, nil
			completed = true
			close(e.done)
			return v, nil
		}
		// Valid envelope, undecodable payload (e.g. the value type changed
		// without a version bump): recompute and overwrite.
	}
	val, err = compute()
	e.val, e.err = val, err
	completed = true
	close(e.done)
	if err == nil && disk != nil {
		// Write-through, best-effort; errors are never persisted — a
		// failure observed in one process must not veto re-evaluation in
		// the next.
		if data, eerr := json.Marshal(val); eerr == nil {
			disk.Put(k, data)
		}
	}
	return val, err
}

// drop removes e from k's bucket if still published there.
func (c *Cache) drop(k Key, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bucket := c.buckets[k.hash]
	for i, cand := range bucket {
		if cand == e {
			c.buckets[k.hash] = append(bucket[:i], bucket[i+1:]...)
			return
		}
	}
}

// Stats snapshots the hit/miss/collision counters, merged with the
// persistent tier's counters when one is attached. Nil-safe.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	s := CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Collisions: c.collisions.Load(),
	}
	if d := c.Disk(); d != nil {
		ds := d.Stats()
		s.DiskHits = ds.Hits
		s.DiskWrites = ds.Writes
		s.Quarantined = ds.Quarantined
		s.Evictions = ds.Evicted
	}
	return s
}

// CachedJSON returns the cached value for k, computing and storing it on
// first use; it is the cache's one entry point. When the cache has a disk
// tier, a memory miss consults it before computing, and successful values
// are written through as JSON. T must JSON round-trip exactly (exported fields,
// no NaN/Inf — encode infeasibility as a flag); errors are never persisted.
// Nil-safe: a nil cache just runs compute.
func CachedJSON[T any](c *Cache, k Key, compute func() (T, error)) (T, error) {
	decode := func(data []byte) (any, error) {
		var v T
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, err
		}
		return v, nil
	}
	v, err := c.do(k, decode, func() (any, error) { return compute() })
	if v == nil {
		var zero T
		return zero, err
	}
	return v.(T), err
}

// Engine bundles the worker pool, the cache and the job policy — the handle
// the sweeps and core.Session share so every consumer draws from the same
// workers, never evaluates the same point twice, and runs every job under
// the same deadlines and retry budget. A nil *Engine is valid and means
// sequential, uncached, policy-free evaluation.
type Engine struct {
	pool    *Pool
	cache   *Cache
	policy  JobPolicy
	retries atomic.Int64

	// Failed-job accounting by retry class, for the metrics exporter.
	// Caller cancellations are excluded: a job abandoned because its
	// request went away is not a job failure.
	failTransient atomic.Int64
	failPermanent atomic.Int64
}

// NewEngine returns an engine with the given worker count (<= 0 means
// runtime.NumCPU()), a fresh cache, and the zero JobPolicy (no deadline, no
// retries).
func NewEngine(workers int) *Engine {
	return &Engine{pool: NewPool(workers), cache: NewCache()}
}

// Pool returns the engine's worker pool. Nil-safe (nil engine → nil pool,
// which runs sequentially).
func (e *Engine) Pool() *Pool {
	if e == nil {
		return nil
	}
	return e.pool
}

// Cache returns the engine's result cache. Nil-safe (nil engine → nil
// cache, which disables caching).
func (e *Engine) Cache() *Cache {
	if e == nil {
		return nil
	}
	return e.cache
}

// Workers reports the engine's concurrency. Nil-safe.
func (e *Engine) Workers() int { return e.Pool().Workers() }

// CacheStats snapshots the engine's cache counters. Nil-safe.
func (e *Engine) CacheStats() CacheStats { return e.Cache().Stats() }

// SetPolicy installs the per-job deadline/retry policy applied by RunJob.
// Set it before evaluation starts. Nil-safe (no-op).
func (e *Engine) SetPolicy(p JobPolicy) {
	if e == nil {
		return
	}
	e.policy = p
}

// AttachDisk puts a persistent tier under the engine's cache. Nil-safe.
func (e *Engine) AttachDisk(d *DiskCache) { e.Cache().AttachDisk(d) }

// RunJob executes one evaluation job under the engine's policy: per-attempt
// deadline, transient-error retries with backoff, retry accounting. label
// names the job in retry diagnostics. Nil-safe: a nil engine runs fn bare.
func (e *Engine) RunJob(ctx context.Context, label string, fn func(context.Context) error) error {
	if e == nil {
		return fn(ctx)
	}
	p := e.policy
	user := p.OnRetry
	p.OnRetry = func(attempt int, err error) {
		e.retries.Add(1)
		if user != nil {
			user(attempt, err)
		}
	}
	err := p.Run(ctx, label, fn)
	if err != nil && ctx.Err() == nil {
		if Transient(err) {
			e.failTransient.Add(1)
		} else {
			e.failPermanent.Add(1)
		}
	}
	return err
}

// FailedJobs reports jobs that ended in error after the policy's retry
// budget, split by Transient classification. Caller-canceled jobs are
// counted in neither. Nil-safe.
func (e *Engine) FailedJobs() (transient, permanent int64) {
	if e == nil {
		return 0, 0
	}
	return e.failTransient.Load(), e.failPermanent.Load()
}

// Retries reports how many job retries the policy has performed. Nil-safe.
func (e *Engine) Retries() int64 {
	if e == nil {
		return 0
	}
	return e.retries.Load()
}
