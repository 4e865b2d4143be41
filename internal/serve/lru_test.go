package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ssnkit/internal/pdn"
)

// TestLRUHammer pounds one small cache from many goroutines with a working
// set four times its capacity, so hits, misses and evictions interleave on
// every shard. A fifth of the keys compute an error (dropped; deduplicated
// waiters recompute) and a fifth compute a value carrying its own error
// (kept, the way ExtractCache keeps failed fits). Run under -race it is the
// shard-locking proof; the assertions check that every lookup returns what
// its key computes — a hit that reaches an entry's Once before the
// inserting goroutine must still run the compute — and that the cache
// stays within capacity.
func TestLRUHammer(t *testing.T) {
	const goroutines, keys, rounds, capacity = 16, 32, 300, 8
	type val struct {
		key int
		err error
	}
	errCompute := errors.New("compute failed")
	errCarried := errors.New("carried failure")
	c := newLRU[int, val](capacity, func(k int) uint64 { return uint64(k) })
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g*7 + i) % keys
				v, _, err := c.get(k, func() (val, error) {
					switch k % 5 {
					case 0:
						return val{}, errCompute
					case 1:
						return val{key: k, err: errCarried}, nil
					}
					return val{key: k}, nil
				})
				var ok bool
				switch k % 5 {
				case 0:
					ok = errors.Is(err, errCompute)
				case 1:
					ok = err == nil && v.key == k && errors.Is(v.err, errCarried)
				default:
					ok = err == nil && v.key == k && v.err == nil
				}
				if !ok {
					t.Errorf("key %d: got (%+v, %v)", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.len(); n > capacity {
		t.Errorf("cache exceeded capacity: %d > %d", n, capacity)
	}
}

// TestLRUDedupAndError: concurrent misses on one key run the
// sweep once and share the result; a failed sweep is not retained, so the
// next lookup computes afresh.
func TestLRUDedupAndError(t *testing.T) {
	c := newLRU[string, *pdn.Profile](8, fnv1a)
	var calls atomic.Int32
	prof := &pdn.Profile{Points: []pdn.Point{{Freq: 1e6}}}
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*pdn.Profile, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := c.get("k", func() (*pdn.Profile, error) {
				calls.Add(1)
				<-gate
				return prof, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = p
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times for one key, want 1", n)
	}
	for i, p := range results {
		if p != prof {
			t.Fatalf("goroutine %d got %p, want the shared profile", i, p)
		}
	}

	boom := errors.New("boom")
	if _, _, err := c.get("bad", func() (*pdn.Profile, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	ok := false
	if _, _, err := c.get("bad", func() (*pdn.Profile, error) { ok = true; return prof, nil }); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("failed entry was cached; retry never recomputed")
	}
}

// TestLRUEviction: the LRU bound holds and the shard count clamps to the
// capacity.
func TestLRUEviction(t *testing.T) {
	c := newLRU[string, *pdn.Profile](1, fnv1a)
	if len(c.shards) != 1 {
		t.Fatalf("capacity 1 spread over %d shards", len(c.shards))
	}
	prof := &pdn.Profile{Points: []pdn.Point{{}}}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.get(key, func() (*pdn.Profile, error) { return prof, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.len() != 1 {
		t.Fatalf("cache holds %d entries, capacity 1", c.len())
	}
}

func TestShardCountClamp(t *testing.T) {
	for _, tc := range []struct{ capacity, maxWant int }{
		{1, 1}, {2, 2}, {3, 2}, {64, 64}, {4096, 4096},
	} {
		n := shardCount(tc.capacity)
		if n < 1 || n > tc.maxWant || n&(n-1) != 0 {
			t.Errorf("shardCount(%d) = %d, want a power of two in [1, %d]",
				tc.capacity, n, tc.maxWant)
		}
	}
	if got := len(NewExtractCache(64, nil).lru.shards); got&(got-1) != 0 {
		t.Errorf("shard count %d not a power of two", got)
	}
}
