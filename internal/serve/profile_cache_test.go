package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"ssnkit/internal/pdn"
	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/spice"
)

// TestProfileKeyDistinguishes: every request knob that changes the result
// must change the key; knobs that do not (worker count) must not appear.
func TestProfileKeyDistinguishes(t *testing.T) {
	base := func() *pkgmodel.PDNGrid { return pkgmodel.DefaultPDN(pkgmodel.PGA, 3, 3, 4) }
	logF, err := spice.FreqGrid(1e6, 1e10, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	linF, err := spice.FreqGrid(1e6, 1e10, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	ref := profileKey(base(), logF, false)
	if got := profileKey(base(), logF, false); got != ref {
		t.Fatal("identical inputs produced different keys")
	}
	variants := map[string]string{
		"with_sens": profileKey(base(), logF, true),
		"linear":    profileKey(base(), linF, false),
		"package": profileKey(
			pkgmodel.DefaultPDN(pkgmodel.QFP, 3, 3, 4), logF, false),
		"rows": profileKey(pkgmodel.DefaultPDN(pkgmodel.PGA, 4, 3, 4), logF, false),
		"pads": profileKey(pkgmodel.DefaultPDN(pkgmodel.PGA, 3, 3, 2), logF, false),
		"points": func() string {
			f, err := spice.FreqGrid(1e6, 1e10, 21, true)
			if err != nil {
				t.Fatal(err)
			}
			return profileKey(base(), f, false)
		}(),
		"decap": func() string {
			g := base()
			g.DecapSites = append(g.DecapSites, pkgmodel.DecapSite{Node: 1, C: 1e-9, ESR: 5e-3})
			return profileKey(g, logF, false)
		}(),
	}
	seen := map[string]string{ref: "base"}
	for name, key := range variants {
		if prev, dup := seen[key]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[key] = name
	}
}

// TestProfileCacheDedupAndError: concurrent misses on one key run the
// sweep once and share the result; a failed sweep is not retained, so the
// next lookup computes afresh.
func TestProfileCacheDedupAndError(t *testing.T) {
	c := NewProfileCache(8, nil)
	var calls atomic.Int32
	prof := &pdn.Profile{Points: []pdn.Point{{Freq: 1e6}}}
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*pdn.Profile, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Get("k", func() (*pdn.Profile, error) {
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
	if _, err := c.Get("bad", func() (*pdn.Profile, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	ok := false
	if _, err := c.Get("bad", func() (*pdn.Profile, error) { ok = true; return prof, nil }); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("failed entry was cached; retry never recomputed")
	}
}

// TestProfileCacheHammer: concurrent hits, misses and evictions over a
// small capacity never hand back a nil profile with a nil error, and every
// profile returned is the one its key computes. A hit that reaches an
// entry's Once before the inserting goroutine must still run the sweep.
func TestProfileCacheHammer(t *testing.T) {
	const goroutines, keys, rounds = 8, 16, 200
	c := NewProfileCache(4, nil)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g*5 + i) % keys
				prof, err := c.Get(fmt.Sprintf("k%d", k), func() (*pdn.Profile, error) {
					return &pdn.Profile{Points: []pdn.Point{{Freq: float64(k)}}}, nil
				})
				if err != nil {
					t.Errorf("key %d: %v", k, err)
					return
				}
				if prof == nil {
					t.Errorf("key %d: nil profile with nil error", k)
					return
				}
				if got := prof.Points[0].Freq; got != float64(k) {
					t.Errorf("key %d: got the profile of key %v", k, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 4 {
		t.Errorf("cache exceeded capacity: %d > 4", n)
	}
}

// TestProfileCacheEviction: the LRU bound holds and Shards clamps to the
// capacity.
func TestProfileCacheEviction(t *testing.T) {
	c := NewProfileCache(1, nil)
	if c.Shards() != 1 {
		t.Fatalf("capacity 1 spread over %d shards", c.Shards())
	}
	prof := &pdn.Profile{Points: []pdn.Point{{}}}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := c.Get(key, func() (*pdn.Profile, error) { return prof, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, capacity 1", c.Len())
	}
}

// TestImpedanceProfileCached: repeated identical sweeps hit the cache (the
// second response must be byte-identical without re-solving), a request
// differing only in workers still hits, and a different grid misses. The
// exposition carries the outcome counters.
func TestImpedanceProfileCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const body = `{"rows":3,"cols":3,"pads":4,"points":24,"workers":1}`
	_, first := postJSON(t, ts.URL+"/v1/impedance", body)
	resp, second := postJSON(t, ts.URL+"/v1/impedance", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached sweep response differs from the first")
	}
	counts := s.Metrics().ImpedanceCacheCounts()
	if counts["miss"] != 1 || counts["hit"] != 1 {
		t.Fatalf("after identical sweeps: %v, want 1 miss + 1 hit", counts)
	}
	// Worker count shapes the run, not the result: still a hit.
	postJSON(t, ts.URL+"/v1/impedance", `{"rows":3,"cols":3,"pads":4,"points":24,"workers":2}`)
	// A different mesh is a different profile: a miss.
	postJSON(t, ts.URL+"/v1/impedance", `{"rows":2,"cols":3,"pads":4,"points":24}`)
	counts = s.Metrics().ImpedanceCacheCounts()
	if counts["miss"] != 2 || counts["hit"] != 2 {
		t.Fatalf("counts %v, want 2 misses + 2 hits", counts)
	}
	_, metrics := getURL(t, ts.URL+"/metrics")
	for _, want := range []string{
		`ssnserve_impedance_cache_total{outcome="hit"} 2`,
		`ssnserve_impedance_cache_total{outcome="miss"} 2`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("missing %q in metrics exposition", want)
		}
	}
}
