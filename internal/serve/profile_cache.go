package serve

import (
	"container/list"
	"math"
	"strconv"
	"sync"

	"ssnkit/internal/pdn"
	"ssnkit/internal/pkgmodel"
)

// profileKey fingerprints everything a /v1/impedance profile depends on:
// the mesh spec (dimensions, segment and die parasitics, pin model, pad
// and decap placements, observation node) plus the frequency grid and the
// sensitivity flag. Worker count is deliberately excluded — per-point
// values are bit-identical for any worker count because every engine runs
// the same deterministic refactor sequence (DESIGN.md §17), so concurrency
// is not part of the result's identity. Float64s enter by their exact bit
// patterns; the frequency list is folded to its length, endpoints, and a
// 64-bit FNV-1a over all sample bits, which distinguishes log from linear
// spacing and any custom grid shape.
func profileKey(grid *pkgmodel.PDNGrid, freqs []float64, withSens bool) string {
	b := make([]byte, 0, 160)
	appInt := func(v int) {
		b = strconv.AppendInt(append(b, '|'), int64(v), 10)
	}
	appF := func(v float64) {
		b = strconv.AppendUint(append(b, '|'), math.Float64bits(v), 16)
	}
	appInt(grid.Rows)
	appInt(grid.Cols)
	appF(grid.SegR)
	appF(grid.SegL)
	appF(grid.DieC)
	appF(grid.DieR)
	appF(grid.Pin.L)
	appF(grid.Pin.C)
	appF(grid.Pin.R)
	appInt(grid.Obs)
	appInt(len(grid.PadSites))
	for _, p := range grid.PadSites {
		appInt(p)
	}
	appInt(len(grid.DecapSites))
	for _, d := range grid.DecapSites {
		appInt(d.Node)
		appF(d.C)
		appF(d.ESR)
	}
	if withSens {
		b = append(b, "|s"...)
	}
	appInt(len(freqs))
	if n := len(freqs); n > 0 {
		appF(freqs[0])
		appF(freqs[n-1])
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, f := range freqs {
		v := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	b = strconv.AppendUint(append(b, '|'), h, 16)
	return string(b)
}

// ProfileCache is a sharded LRU over computed impedance profiles keyed by
// profileKey. A sweep re-factorizes the MNA system at every frequency —
// milliseconds to seconds of solver work — but the profile is a pure
// function of the mesh spec and frequency grid, so repeated identical
// sweeps (dashboards polling a fixed design, retried requests, load-test
// shapes) collapse to a map lookup. The sharding, eviction, and in-flight
// dedup follow ExtractCache: FNV-1a key distribution over a power-of-two
// number of independently locked shards, per-shard LRU lists, and a
// sync.Once per entry so concurrent misses on one key run the sweep once
// and share the result. Unlike extraction, failed sweeps are NOT cached:
// the usual failure is the requester's own context cancellation, which
// says nothing about the next request, so error entries are removed and
// deduplicated waiters recompute for themselves.
type ProfileCache struct {
	shards  []profileShard
	mask    uint64
	metrics *Metrics
}

type profileShard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // of *profileEntry; front = most recent
	byKey    map[string]*list.Element
	// Pad to a cache line so neighbouring shard mutexes do not false-share.
	_ [64]byte
}

type profileEntry struct {
	key  string
	once sync.Once
	prof *pdn.Profile
	err  error
}

// NewProfileCache builds a ProfileCache holding up to capacity profiles in
// total, split across the shards; m may be nil when no metrics are
// collected.
func NewProfileCache(capacity int, m *Metrics) *ProfileCache {
	if capacity < 1 {
		capacity = 1
	}
	n := shardCount(capacity)
	c := &ProfileCache{
		shards:  make([]profileShard, n),
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

// Get returns the cached profile for the key, running compute on first
// use. Callers share the returned *pdn.Profile and must treat it as
// read-only.
func (c *ProfileCache) Get(key string, compute func() (*pdn.Profile, error)) (*pdn.Profile, error) {
	sh := &c.shards[fnv1a(key)&c.mask]
	sh.mu.Lock()
	var e *profileEntry
	el, hit := sh.byKey[key]
	if hit {
		sh.ll.MoveToFront(el)
		e = el.Value.(*profileEntry)
	} else {
		e = &profileEntry{key: key}
		sh.byKey[key] = sh.ll.PushFront(e)
		for sh.ll.Len() > sh.capacity {
			oldest := sh.ll.Back()
			sh.ll.Remove(oldest)
			delete(sh.byKey, oldest.Value.(*profileEntry).key)
		}
	}
	sh.mu.Unlock()
	if c.metrics != nil {
		if hit {
			c.metrics.ObserveImpedanceCache("hit")
		} else {
			c.metrics.ObserveImpedanceCache("miss")
		}
	}
	// Sweep outside the lock: a slow profile must not serialize hits on
	// other keys. A hit can reach the Once before the goroutine that
	// inserted the entry, so every caller passes the real sweep; the key
	// is pure, so whoever runs it computes the same answer. Concurrent
	// eviction is harmless — holders of the entry pointer still see the
	// result.
	ran := false
	e.once.Do(func() {
		ran = true
		e.prof, e.err = compute()
	})
	if e.err == nil {
		return e.prof, nil
	}
	if !ran {
		// The sweep this lookup deduplicated against failed — likely that
		// request's own cancellation, which is no verdict on this one.
		// Compute directly; the failed entry is being removed by its runner.
		return compute()
	}
	c.remove(key, e)
	return nil, e.err
}

// remove drops the entry if it is still the one cached under key (a fresh
// entry for the same key must not be collateral damage).
func (c *ProfileCache) remove(key string, e *profileEntry) {
	sh := &c.shards[fnv1a(key)&c.mask]
	sh.mu.Lock()
	if el, ok := sh.byKey[key]; ok && el.Value.(*profileEntry) == e {
		sh.ll.Remove(el)
		delete(sh.byKey, key)
	}
	sh.mu.Unlock()
}

// Len reports the number of cached profiles across all shards.
func (c *ProfileCache) Len() int {
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
func (c *ProfileCache) Shards() int { return len(c.shards) }
