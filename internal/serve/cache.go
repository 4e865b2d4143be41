package serve

import (
	"container/list"
	"math"
	"runtime"
	"sync"

	"ssnkit/internal/device"
	"ssnkit/internal/fit"
	"ssnkit/internal/ssn"
)

// fnv1a hashes a key with 64-bit FNV-1a; it picks the shard for a string
// key without allocating.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// shardCount picks a power-of-two shard count: enough shards that
// GOMAXPROCS goroutines rarely contend, but never more shards than cache
// slots (every shard must be able to hold at least one entry).
func shardCount(capacity int) int {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	for n > 1 && n > capacity {
		n >>= 1
	}
	return n
}

// ExtractCache is a sharded LRU over ASDM extractions keyed by
// device.ExtractSpec.Key(). Extraction re-fits a least-squares problem on
// a (Vg, Vs) grid per call — microseconds of closed-form evaluation hide
// behind milliseconds of fitting when every batch item re-extracts — but
// the result is a pure function of the spec, so a small cache turns the
// common case (thousands of items on a handful of process corners) into
// map lookups. Keys are FNV-1a-distributed over a power-of-two number of
// independently locked shards so concurrent batch items on different
// corners do not serialize on one mutex. Concurrent misses on the same key
// are still deduplicated: the first goroutine extracts inside the entry's
// sync.Once, later ones block on it and share the result. Failed
// extractions are cached too (the result for a bad spec never changes).
//
// The type is exported because it is the extraction cache for every bulk
// consumer, not just the HTTP service: cmd/ssnsweep shares it with the
// sweep engine so a size-axis sweep re-fits each width once.
type ExtractCache struct {
	shards  []extractShard
	mask    uint64
	metrics *Metrics
}

// extractShard is one independently locked slice of the cache: a classic
// mutex-guarded LRU with its own share of the total capacity.
type extractShard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // of *cacheEntry; front = most recent
	byKey    map[string]*list.Element
	// Pad to a cache line so neighbouring shard mutexes do not false-share.
	_ [64]byte
}

type cacheEntry struct {
	key   string
	once  sync.Once
	model device.ASDM
	stats fit.Stats
	err   error
}

// NewExtractCache builds an ExtractCache holding up to capacity entries in
// total, split across the shards; m may be nil when no metrics are
// collected (CLI use).
func NewExtractCache(capacity int, m *Metrics) *ExtractCache {
	if capacity < 1 {
		capacity = 1
	}
	n := shardCount(capacity)
	c := &ExtractCache{
		shards:  make([]extractShard, n),
		mask:    uint64(n - 1),
		metrics: m,
	}
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = base
		if i < extra {
			sh.capacity++
		}
		sh.ll = list.New()
		sh.byKey = map[string]*list.Element{}
	}
	return c
}

// Get returns the cached extraction for the spec, extracting on first use.
func (c *ExtractCache) Get(spec device.ExtractSpec) (device.ASDM, fit.Stats, error) {
	key := spec.Key()
	sh := &c.shards[fnv1a(key)&c.mask]
	sh.mu.Lock()
	var e *cacheEntry
	el, hit := sh.byKey[key]
	if hit {
		sh.ll.MoveToFront(el)
		e = el.Value.(*cacheEntry)
	} else {
		e = &cacheEntry{key: key}
		sh.byKey[key] = sh.ll.PushFront(e)
		for sh.ll.Len() > sh.capacity {
			oldest := sh.ll.Back()
			sh.ll.Remove(oldest)
			delete(sh.byKey, oldest.Value.(*cacheEntry).key)
		}
	}
	sh.mu.Unlock()
	if c.metrics != nil {
		if hit {
			c.metrics.CacheHit()
		} else {
			c.metrics.CacheMiss()
		}
	}
	// Extract outside the lock: a slow fit must not serialize hits on
	// other keys. A hit can reach the Once before the goroutine that
	// inserted the entry, so every caller passes the real extraction;
	// the key is pure, so whoever runs it computes the same answer.
	// Evicting this entry concurrently is harmless — holders of the
	// pointer still see the result.
	e.once.Do(func() {
		e.model, e.stats, e.err = spec.Extract()
	})
	return e.model, e.stats, e.err
}

// Len reports the number of cached entries across all shards.
func (c *ExtractCache) Len() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.ll.Len()
		sh.mu.Unlock()
	}
	return total
}

// Shards reports the shard count (observability; tests assert the
// power-of-two clamp).
func (c *ExtractCache) Shards() int { return len(c.shards) }

// PlanCache memoizes compiled evaluation plans keyed by the full Params
// value, sharded like ExtractCache. /v1/maxssn batches repeat parameter
// points heavily (the same corner evaluated under different sensitivity
// flags, retries, dashboards polling a fixed design), and a compiled plan
// is a pure function of Params — so the cache replaces a per-request
// model construction with one map lookup on a comparable key.
//
// Each shard is a plain map with a hard size cap; when a shard fills, it
// is cleared wholesale rather than tracking recency. Plan compilation is
// tens of nanoseconds — cheap enough that occasionally recomputing a hot
// entry beats paying LRU bookkeeping on every hit.
type PlanCache struct {
	shards []planShard
	mask   uint64
}

type planShard struct {
	mu  sync.Mutex
	cap int
	m   map[ssn.Params]planEntry
	_   [64]byte // cache-line pad, as in extractShard
}

// planEntry is the cached answer set for one parameter point: everything
// evalOne reports that is not a trivial function of Params itself. Failed
// compilations are cached too — validation is deterministic.
type planEntry struct {
	vmax float64
	cse  ssn.Case
	tmax float64
	err  error
}

// NewPlanCache builds a PlanCache holding up to capacity entries in total.
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	n := shardCount(capacity)
	pc := &PlanCache{
		shards: make([]planShard, n),
		mask:   uint64(n - 1),
	}
	base, extra := capacity/n, capacity%n
	for i := range pc.shards {
		sh := &pc.shards[i]
		sh.cap = base
		if i < extra {
			sh.cap++
		}
		sh.m = make(map[ssn.Params]planEntry)
	}
	return pc
}

// hashParams mixes every Params field (float64s by their bit patterns)
// with 64-bit FNV-1a to pick a shard. Equal Params always land on the
// same shard; near-equal ones spread.
func hashParams(p ssn.Params) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(p.N))
	mix(math.Float64bits(p.Dev.K))
	mix(math.Float64bits(p.Dev.V0))
	mix(math.Float64bits(p.Dev.A))
	mix(math.Float64bits(p.Vdd))
	mix(math.Float64bits(p.Slope))
	mix(math.Float64bits(p.L))
	mix(math.Float64bits(p.C))
	return h
}

// Get returns the Table 1 answers for p, compiling a plan on first use.
// Concurrent misses on the same key may compile twice; compilation is
// deterministic and cheap, so the duplicates agree and the last write
// wins harmlessly.
func (pc *PlanCache) Get(p ssn.Params) (vmax float64, cse ssn.Case, tmax float64, err error) {
	sh := &pc.shards[hashParams(p)&pc.mask]
	sh.mu.Lock()
	if e, ok := sh.m[p]; ok {
		sh.mu.Unlock()
		return e.vmax, e.cse, e.tmax, e.err
	}
	sh.mu.Unlock()

	var pl ssn.Plan
	var e planEntry
	if cerr := pl.Compile(p, ssn.PlanFixed); cerr != nil {
		e = planEntry{err: cerr}
	} else {
		e = planEntry{vmax: pl.VMax(), cse: pl.Case(), tmax: pl.VMaxTime()}
	}

	sh.mu.Lock()
	if len(sh.m) >= sh.cap {
		clear(sh.m)
	}
	sh.m[p] = e
	sh.mu.Unlock()
	return e.vmax, e.cse, e.tmax, e.err
}

// Len reports the number of cached plans across all shards.
func (pc *PlanCache) Len() int {
	total := 0
	for i := range pc.shards {
		sh := &pc.shards[i]
		sh.mu.Lock()
		total += len(sh.m)
		sh.mu.Unlock()
	}
	return total
}
