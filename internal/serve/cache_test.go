package serve

import (
	"math"
	"sync"
	"testing"

	"ssnkit/internal/device"
	"ssnkit/internal/ssn"
)

func TestExtractCacheHitMissAndEquivalence(t *testing.T) {
	m := NewMetrics()
	c := NewExtractCache(8, m)
	spec := device.ExtractSpec{Process: "c018", Corner: device.FF}
	a, _, err := c.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := c.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("cached result diverged: %v vs %v", a, b)
	}
	direct, _, err := spec.Extract()
	if err != nil {
		t.Fatal(err)
	}
	if a != direct {
		t.Errorf("cache changed the model: %v vs %v", a, direct)
	}
	if hits, misses := m.value("ssnserve_cache_hits_total"), m.value("ssnserve_cache_misses_total"); hits != 1 || misses != 1 {
		t.Errorf("hits %d misses %d, want 1/1", hits, misses)
	}
}

func TestExtractCacheEviction(t *testing.T) {
	c := NewExtractCache(2, nil)
	specs := []device.ExtractSpec{
		{Process: "c018"}, {Process: "c025"}, {Process: "c035"},
	}
	for _, s := range specs {
		if _, _, err := c.Get(s); err != nil {
			t.Fatal(err)
		}
	}
	// Sharding splits the capacity, so the exact count after eviction
	// depends on how the three keys hash across shards — the invariant is
	// the total never exceeds capacity and eviction actually happened.
	if n := c.Len(); n > 2 || n < 1 {
		t.Errorf("cache len %d, want within [1, 2] after eviction", n)
	}
	// The evicted oldest entry re-extracts without error.
	if _, _, err := c.Get(specs[0]); err != nil {
		t.Fatal(err)
	}
}

func TestExtractCacheCachesFailures(t *testing.T) {
	m := NewMetrics()
	c := NewExtractCache(4, m)
	bad := device.ExtractSpec{Process: "c404"}
	if _, _, err := c.Get(bad); err == nil {
		t.Fatal("unknown process must error")
	}
	if _, _, err := c.Get(bad); err == nil {
		t.Fatal("cached failure must still error")
	}
	if hits, misses := m.value("ssnserve_cache_hits_total"), m.value("ssnserve_cache_misses_total"); hits != 1 || misses != 1 {
		t.Errorf("failure not cached: hits %d misses %d", hits, misses)
	}
}

func TestExtractCacheConcurrentSameKey(t *testing.T) {
	m := NewMetrics()
	c := NewExtractCache(8, m)
	spec := device.ExtractSpec{Process: "c025", Corner: device.SS}
	var wg sync.WaitGroup
	results := make([]device.ASDM, 32)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, _, err := c.Get(spec)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = a
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d saw a different model", i)
		}
	}
	// Concurrent first access dedupes to exactly one miss.
	if misses := m.value("ssnserve_cache_misses_total"); misses != 1 {
		t.Errorf("misses %d, want 1 (in-flight dedup)", misses)
	}
}

func TestExtractCacheConcurrentManyKeys(t *testing.T) {
	c := NewExtractCache(4, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				spec := device.ExtractSpec{
					Process: []string{"c018", "c025", "c035"}[(g+i)%3],
					Corner:  device.Corner((g + i) % 3),
					Size:    float64(1 + i%3),
				}
				if _, _, err := c.Get(spec); err != nil {
					t.Errorf("%+v: %v", spec, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 4 {
		t.Errorf("cache exceeded capacity: %d", c.Len())
	}
}

func BenchmarkExtractUncached(b *testing.B) {
	spec := device.ExtractSpec{Process: "c018"}
	for i := 0; i < b.N; i++ {
		if _, _, err := spec.Extract(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExtractCacheHitDoesNotAllocate pins the struct key's point: a hit,
// metrics included, hashes a few words and allocates nothing.
func TestExtractCacheHitDoesNotAllocate(t *testing.T) {
	c := NewExtractCache(8, NewMetrics())
	spec := device.ExtractSpec{Process: "c018", Corner: device.FF, Rail: true, Size: 2}
	if _, _, err := c.Get(spec); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { _, _, _ = c.Get(spec) }); n != 0 {
		t.Errorf("%v allocations per cache hit, want 0", n)
	}
}

func BenchmarkExtractCached(b *testing.B) {
	c := NewExtractCache(8, nil)
	spec := device.ExtractSpec{Process: "c018"}
	if _, _, err := c.Get(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Get(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPlanCacheMatchesModel(t *testing.T) {
	pc := NewPlanCache(64)
	spec := device.ExtractSpec{Process: "c018"}
	dev, _, err := spec.Extract()
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 32; n *= 2 {
		p := ssn.Params{N: n, Dev: dev, Vdd: 1.8, Slope: 1.8e9, L: 1.2e-9, C: 2e-12}
		vmax, cse, tmax, err := pc.Get(p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ssn.NewLCModel(p)
		if err != nil {
			t.Fatal(err)
		}
		if vmax != m.VMax() || cse != m.Case() || tmax != m.VMaxTime() {
			t.Errorf("N=%d: cached (%g, %v, %g) != model (%g, %v, %g)",
				n, vmax, cse, tmax, m.VMax(), m.Case(), m.VMaxTime())
		}
		// Second read must come from the cache and agree bit for bit.
		v2, c2, t2, err := pc.Get(p)
		if err != nil || v2 != vmax || c2 != cse || t2 != tmax {
			t.Errorf("N=%d: cache hit diverged", n)
		}
	}
	// Invalid parameters cache their error with the scalar path's text.
	bad := ssn.Params{N: 0}
	_, _, _, err1 := pc.Get(bad)
	_, err2 := ssn.NewLCModel(bad)
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Errorf("error mismatch: cache %v, model %v", err1, err2)
	}
}

// TestExtractKeyMatchesKeyString pins the struct key to the string key it
// replaced on the request path: two specs share a cache entry exactly
// when their Key() strings are equal.
func TestExtractKeyMatchesKeyString(t *testing.T) {
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	var specs []device.ExtractSpec
	for _, proc := range []string{"c018", "c025", "c018|tt"} {
		for _, corner := range []device.Corner{device.TT, device.SS, device.FF, device.Corner(7)} {
			for _, rail := range []bool{false, true} {
				for _, size := range []float64{0, math.Copysign(0, -1), -1, 1, 2, 2.5, 5e-324,
					math.Inf(1), math.Inf(-1), math.NaN(), otherNaN} {
					specs = append(specs, device.ExtractSpec{Process: proc, Corner: corner, Rail: rail, Size: size})
				}
			}
		}
	}
	for _, a := range specs {
		for _, b := range specs {
			if (a.Key() == b.Key()) != (extractKeyOf(a) == extractKeyOf(b)) {
				t.Fatalf("%+v vs %+v: Key %q / %q, struct keys equal %t",
					a, b, a.Key(), b.Key(), extractKeyOf(a) == extractKeyOf(b))
			}
			if extractKeyOf(a) == extractKeyOf(b) && hashExtractKey(extractKeyOf(a)) != hashExtractKey(extractKeyOf(b)) {
				t.Fatalf("%+v vs %+v: equal keys on different shards", a, b)
			}
		}
	}
}

// TestExtractCacheSharesEquivalentSpecs drives the cache itself: the
// degenerate widths share one entry, corners and rails do not, and a NaN
// width is one entry rather than a fresh miss on every lookup.
func TestExtractCacheSharesEquivalentSpecs(t *testing.T) {
	m := NewMetrics()
	c := NewExtractCache(64, m)
	get := func(s device.ExtractSpec) {
		t.Helper()
		_, _, _ = c.Get(s) // a failed fit is cached like a good one
	}
	for _, size := range []float64{0, -1, 1} {
		get(device.ExtractSpec{Process: "c018", Size: size})
	}
	if n, hits := c.Len(), m.value("ssnserve_cache_hits_total"); n != 1 || hits != 2 {
		t.Errorf("sizes 0, -1, 1: %d entries, %d hits; want 1 entry, 2 hits", n, hits)
	}
	get(device.ExtractSpec{Process: "c018", Corner: device.FF})
	get(device.ExtractSpec{Process: "c018", Rail: true})
	get(device.ExtractSpec{Process: "c018", Corner: device.FF, Rail: true})
	if n := c.Len(); n != 4 {
		t.Errorf("corners and rails: %d entries, want 4", n)
	}
	nan := math.NaN()
	for i := 0; i < 8; i++ {
		get(device.ExtractSpec{Process: "c018", Size: nan})
		nan = math.Float64frombits(math.Float64bits(nan) + 1)
	}
	if n, misses := c.Len(), m.value("ssnserve_cache_misses_total"); n != 5 || misses != 5 {
		t.Errorf("NaN width: %d entries, %d misses; want 5 and 5", n, misses)
	}
}
