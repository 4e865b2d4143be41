package serve

import (
	"math"

	"ssnkit/internal/device"
	"ssnkit/internal/fit"
	"ssnkit/internal/ssn"
)

// ExtractCache is a sharded LRU over ASDM extractions keyed by the
// normalized device.ExtractSpec value (extractKey), so a hit hashes a few
// words and allocates nothing. Extraction re-fits a least-squares problem on
// a (Vg, Vs) grid per call — microseconds of closed-form evaluation hide
// behind milliseconds of fitting when every batch item re-extracts — but
// the result is a pure function of the spec, so a small cache turns the
// common case (thousands of items on a handful of process corners) into
// map lookups, with concurrent misses on one spec fitted once. Failed
// extractions are cached too: the result for a bad spec never changes.
//
// The type is exported because it is the extraction cache for every bulk
// consumer, not just the HTTP service: cmd/ssnsweep shares it with the
// sweep engine so a size-axis sweep re-fits each width once.
type ExtractCache struct {
	lru     *lru[extractKey, extraction]
	metrics *Metrics
}

// extractKey is the comparable identity of a normalized ExtractSpec: two
// specs map to one key exactly when their Key() strings are equal. The
// width is held by its bit pattern with every NaN folded onto one, because
// a NaN never equals itself and would miss (and never be deleted from) a
// map keyed by the float.
type extractKey struct {
	process string
	corner  device.Corner
	rail    bool
	size    uint64
}

func extractKeyOf(spec device.ExtractSpec) extractKey {
	s := spec.Normalized()
	size := math.Float64bits(s.Size)
	if math.IsNaN(s.Size) {
		size = math.Float64bits(math.NaN())
	}
	return extractKey{process: s.Process, corner: s.Corner, rail: s.Rail, size: size}
}

// hashExtractKey mixes every extractKey field with 64-bit FNV-1a to pick a
// shard.
func hashExtractKey(k extractKey) uint64 {
	h := fnvString(fnvOffset, k.process)
	w := uint64(k.corner) << 1
	if k.rail {
		w |= 1
	}
	return fnvWord(fnvWord(h, w), k.size)
}

// extraction is one cached fit. The fit's error is part of the value, so
// the cache keeps failures instead of dropping them.
type extraction struct {
	model device.ASDM
	stats fit.Stats
	err   error
}

// NewExtractCache builds an ExtractCache holding up to capacity entries in
// total, split across the shards; m may be nil when no metrics are
// collected (CLI use).
func NewExtractCache(capacity int, m *Metrics) *ExtractCache {
	return &ExtractCache{lru: newLRU[extractKey, extraction](capacity, hashExtractKey), metrics: m}
}

// Get returns the cached extraction for the spec, extracting on first use.
func (c *ExtractCache) Get(spec device.ExtractSpec) (device.ASDM, fit.Stats, error) {
	// The compute never fails (the fit's error rides in the value), so
	// get's error is always nil.
	x, hit, _ := c.lru.get(extractKeyOf(spec), func() (extraction, error) {
		var x extraction
		x.model, x.stats, x.err = spec.Extract()
		return x, nil
	})
	if c.metrics != nil {
		if hit {
			c.metrics.cacheHits.inc()
		} else {
			c.metrics.cacheMisses.inc()
		}
	}
	return x.model, x.stats, x.err
}

// Len reports the number of cached entries across all shards.
func (c *ExtractCache) Len() int { return c.lru.len() }

// PlanCache memoizes evalPlan's answers keyed by the full Params value.
// It is not on any request path: /v1/maxssn compiles a plan per item,
// because a compile costs less than a cache lookup (bench/README.md). The
// type stays only for the benchmark's serve.plan_cache.* probe, which
// links against it; it goes when a benchmark change retires that probe.
type PlanCache struct {
	lru *lru[ssn.Params, planEntry]
}

type planEntry struct {
	vmax float64
	cse  ssn.Case
	tmax float64
}

// NewPlanCache builds a PlanCache holding up to capacity entries in total.
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{lru: newLRU[ssn.Params, planEntry](capacity, hashParams)}
}

// hashParams mixes every Params field (float64s by their bit patterns)
// with 64-bit FNV-1a to pick a shard. Equal Params always land on the
// same shard; near-equal ones spread.
func hashParams(p ssn.Params) uint64 {
	h := fnvWord(fnvOffset, uint64(p.N))
	for _, v := range [...]float64{p.Dev.K, p.Dev.V0, p.Dev.A, p.Vdd, p.Slope, p.L, p.C} {
		h = fnvWord(h, math.Float64bits(v))
	}
	return h
}

// Get returns the Table 1 answers for p, compiling a plan on first use.
// Invalid parameters are not cached; each lookup reports the error anew.
func (pc *PlanCache) Get(p ssn.Params) (vmax float64, cse ssn.Case, tmax float64, err error) {
	e, _, err := pc.lru.get(p, func() (planEntry, error) {
		var e planEntry
		var err error
		e.vmax, e.cse, e.tmax, err = evalPlan(p)
		return e, err
	})
	return e.vmax, e.cse, e.tmax, err
}
