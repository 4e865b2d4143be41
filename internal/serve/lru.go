package serve

import (
	"container/list"
	"runtime"
	"sync"
)

// 64-bit FNV-1a parameters, shared by every shard and key hash here.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a hashes a key with 64-bit FNV-1a; it picks the shard for a string
// key without allocating.
func fnv1a(s string) uint64 { return fnvString(fnvOffset, s) }

// fnvString folds the bytes of s into the FNV-1a state h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// fnvWord folds the eight bytes of v, low byte first, into the FNV-1a
// state h.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
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

// lru is the one memo behind every cache in this package: a sharded LRU
// of pure computations with in-flight dedup. Keys are spread by hash over
// a power-of-two number of independently locked shards, each with its
// share of the capacity, so concurrent lookups on different keys do not
// serialize on one mutex. Concurrent misses on one key run the compute
// once: the first goroutine runs it inside the entry's sync.Once, later
// ones block on it and share the value.
//
// A value is kept; an error is not. The runner of a failed compute
// removes the entry, and deduplicated waiters recompute for themselves,
// because the usual failure (the requester's own cancellation) says
// nothing about the next caller. A cache that wants failures kept folds
// the error into its value.
type lru[K comparable, V any] struct {
	shards []lruShard[K, V]
	mask   uint64
	hash   func(K) uint64
}

type lruShard[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // of *lruEntry; front = most recent
	byKey    map[K]*list.Element
	// Pad to a cache line so neighbouring shard mutexes do not false-share.
	_ [64]byte
}

type lruEntry[K comparable, V any] struct {
	key  K
	once sync.Once
	val  V
	err  error
}

// newLRU builds an lru holding up to capacity entries in total, split
// across the shards that hash selects between.
func newLRU[K comparable, V any](capacity int, hash func(K) uint64) *lru[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	n := shardCount(capacity)
	c := &lru[K, V]{
		shards: make([]lruShard[K, V], n),
		mask:   uint64(n - 1),
		hash:   hash,
	}
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = base
		if i < extra {
			sh.capacity++
		}
		sh.ll = list.New()
		sh.byKey = map[K]*list.Element{}
	}
	return c
}

// get returns the value cached under key, running compute on first use;
// hit reports whether the key was already cached. Callers share the
// returned value and must treat it as read-only.
func (c *lru[K, V]) get(key K, compute func() (V, error)) (v V, hit bool, err error) {
	sh := &c.shards[c.hash(key)&c.mask]
	sh.mu.Lock()
	var e *lruEntry[K, V]
	el, hit := sh.byKey[key]
	if hit {
		sh.ll.MoveToFront(el)
		e = el.Value.(*lruEntry[K, V])
	} else {
		e = &lruEntry[K, V]{key: key}
		sh.byKey[key] = sh.ll.PushFront(e)
		for sh.ll.Len() > sh.capacity {
			oldest := sh.ll.Back()
			sh.ll.Remove(oldest)
			delete(sh.byKey, oldest.Value.(*lruEntry[K, V]).key)
		}
	}
	sh.mu.Unlock()
	// Compute outside the lock: a slow compute must not serialize hits on
	// other keys. A hit can reach the Once before the goroutine that
	// inserted the entry, so every caller passes the real compute; the
	// key is pure, so whoever runs it computes the same answer. Concurrent
	// eviction is harmless — holders of the entry pointer still see the
	// result.
	ran := false
	e.once.Do(func() {
		ran = true
		e.val, e.err = compute()
	})
	if e.err == nil {
		return e.val, hit, nil
	}
	if !ran {
		v, err = compute()
		return v, hit, err
	}
	sh.mu.Lock()
	// A fresh entry for the same key must not be collateral damage.
	if el, ok := sh.byKey[key]; ok && el.Value.(*lruEntry[K, V]) == e {
		sh.ll.Remove(el)
		delete(sh.byKey, key)
	}
	sh.mu.Unlock()
	return v, hit, e.err
}

// len reports the number of cached entries across all shards.
func (c *lru[K, V]) len() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.ll.Len()
		sh.mu.Unlock()
	}
	return total
}
