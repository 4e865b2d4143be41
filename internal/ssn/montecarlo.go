package ssn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ssnkit/internal/par"
)

// Variation describes relative (1-sigma, Gaussian) process and environment
// spreads applied per Monte Carlo sample. Zero fields do not vary.
type Variation struct {
	K     float64 // device transconductance spread (process corner)
	V0    float64 // displacement-voltage spread
	A     float64 // source-sensitivity spread
	L     float64 // ground-inductance spread (bond length/loop variation)
	C     float64 // pad-capacitance spread
	Slope float64 // input edge-rate spread (driver PVT)
}

// MCResult summarizes a Monte Carlo run over MaxSSN.
type MCResult struct {
	Samples int
	Mean    float64
	StdDev  float64
	Min     float64
	Max     float64
	P95     float64 // 95th percentile — the sign-off number
	P99     float64
	// CaseCounts histograms the operating case across samples; a design
	// sitting near the critical capacitance will straddle regimes.
	CaseCounts map[Case]int
}

// MonteCarlo draws n samples of the parameters with the given relative
// spreads and evaluates the four-case maximum for each. The generator seed
// makes runs reproducible. Samples whose draw is unphysical (e.g. negative
// K) are redrawn; n must be at least 10.
//
// Sampling runs on a worker pool sized by GOMAXPROCS; see MonteCarloCtx
// for cancellation and explicit worker-count control.
func MonteCarlo(p Params, v Variation, n int, seed int64) (*MCResult, error) {
	return MonteCarloCtx(context.Background(), p, v, n, seed, 0)
}

// MonteCarloCtx is MonteCarlo with cancellation and an explicit worker
// count. The n samples are split into `workers` contiguous chunks, each
// drawn from an independent RNG stream derived from the seed and the
// worker index, so results are bit-for-bit deterministic for a fixed
// (seed, workers) pair regardless of scheduling. workers <= 0 uses
// GOMAXPROCS; the count is clamped to n. Cancelling the context aborts
// the run and returns ctx.Err().
func MonteCarloCtx(ctx context.Context, p Params, v Variation, n int, seed int64, workers int) (*MCResult, error) {
	res, _, err := mcCampaign(ctx, p, v, n, seed, workers, 0)
	return res, err
}

// mcCampaign is the shared deterministic parallel campaign behind
// MonteCarloCtx and YieldCtx: identical sampling, chunking and stream
// seeding, plus — when budget > 0 — a per-chunk count of samples at or
// below the budget. The pass count is a sum of per-worker integers over
// the deterministic streams, so a fixed (seed, workers) pair reproduces
// it exactly regardless of scheduling.
func mcCampaign(ctx context.Context, p Params, v Variation, n int, seed int64, workers int, budget float64) (*MCResult, int, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	if n < 10 {
		return nil, 0, invalidf("Samples", n, "must be at least 10",
			"ssn: MonteCarlo needs at least 10 samples, got %d", n)
	}
	for _, s := range []float64{v.K, v.V0, v.A, v.L, v.C, v.Slope} {
		if s < 0 || s > 0.5 {
			return nil, 0, invalidf("Variation", s, "sigma must be within [0, 0.5]",
				"ssn: variation sigma %g outside [0, 0.5]", s)
		}
	}
	workers = par.Workers(workers, n)

	// Deal the n samples into contiguous ranges of one shared slab, one per
	// worker, each with its own seed-derived RNG stream. Workers report by
	// filling their index range in place — no per-sample values escape —
	// and the slab concatenates results in worker order, which keeps every
	// floating-point accumulation order fixed.
	slab := make([]float64, n)
	chunks := make([]mcChunk, workers)
	base, extra := n/workers, n%workers
	off := 0
	for w := range chunks {
		size := base
		if w < extra {
			size++
		}
		chunks[w].vals = slab[off : off+size : off+size]
		chunks[w].budget = budget
		off += size
	}
	// Chunk c draws from stream c, whichever worker claims it.
	par.For(workers, workers, func(int) func(int) {
		return func(c int) { chunks[c].run(ctx, p, v, workerSeed(seed, c)) }
	})
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}

	res := &MCResult{Samples: n, Min: math.Inf(1), Max: math.Inf(-1), CaseCounts: map[Case]int{}}
	pass := 0
	for i := range chunks {
		c := &chunks[i]
		res.Mean += c.sum
		pass += c.pass
		if c.min < res.Min {
			res.Min = c.min
		}
		if c.max > res.Max {
			res.Max = c.max
		}
		for cse, cnt := range c.cases {
			if cnt > 0 {
				res.CaseCounts[Case(cse)] += cnt
			}
		}
	}
	res.Mean /= float64(n)
	ss := 0.0
	for _, x := range slab {
		d := x - res.Mean
		ss += d * d
	}
	res.StdDev = math.Sqrt(ss / float64(n-1))
	sort.Float64s(slab)
	res.P95 = percentile(slab, 0.95)
	res.P99 = percentile(slab, 0.99)
	return res, pass, nil
}

// mcChunk accumulates one worker's share of the samples. vals is the
// worker's contiguous range of the shared result slab.
type mcChunk struct {
	vals   []float64
	budget float64 // count passes against this when > 0
	sum    float64
	min    float64
	max    float64
	pass   int
	cases  [UnderDampedBoundary + 1]int
}

// mcCancelStride bounds how many draws a worker makes between context
// polls; polling per draw costs a channel operation on the hot path.
const mcCancelStride = 64

// run draws the chunk's samples, redrawing unphysical tails like the
// original serial loop. Each accepted draw compiles the worker's Plan in
// place: Compile's PlanFixed validity predicate is exactly Params.Validate,
// so the accept/reject (and hence RNG) sequence matches the historical
// Validate+MaxSSN pairing bit for bit — without MaxSSN's per-sample model
// allocation. It returns early (with a short chunk) only when the context
// is cancelled; the caller treats any cancellation as fatal.
func (c *mcChunk) run(ctx context.Context, p Params, v Variation, seed uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	c.min, c.max = math.Inf(1), math.Inf(-1)
	draw := func(nominal, sigma float64) float64 {
		if sigma == 0 {
			return nominal
		}
		return nominal * (1 + sigma*rng.NormFloat64())
	}
	var pl Plan
	filled := 0
	for iter := 0; filled < len(c.vals); iter++ {
		if iter%mcCancelStride == 0 {
			select {
			case <-ctx.Done():
				return
			default:
			}
		}
		q := p
		q.Dev.K = draw(p.Dev.K, v.K)
		q.Dev.V0 = draw(p.Dev.V0, v.V0)
		q.Dev.A = draw(p.Dev.A, v.A)
		q.L = draw(p.L, v.L)
		q.C = draw(p.C, v.C)
		q.Slope = draw(p.Slope, v.Slope)
		if pl.Compile(q, PlanFixed) != nil {
			continue // unphysical tail draw; retry
		}
		vm, cse := pl.VMax(), pl.Case()
		c.vals[filled] = vm
		filled++
		c.cases[cse]++
		c.sum += vm
		if c.budget > 0 && vm <= c.budget {
			c.pass++
		}
		if vm < c.min {
			c.min = vm
		}
		if vm > c.max {
			c.max = vm
		}
	}
}

// workerSeed derives an independent stream seed for worker w from the user
// seed via one splitmix64 step — the standard way to fan one seed out into
// decorrelated streams without a shared generator.
func workerSeed(seed int64, w int) uint64 {
	z := uint64(seed) + uint64(w+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// percentile returns the q-quantile of sorted values by linear
// interpolation.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func (r *MCResult) String() string {
	return fmt.Sprintf("MC(n=%d): mean %.4g V, sd %.3g V, p95 %.4g V, p99 %.4g V, range [%.4g, %.4g] V",
		r.Samples, r.Mean, r.StdDev, r.P95, r.P99, r.Min, r.Max)
}
