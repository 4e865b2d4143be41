// Package pdn computes power-delivery-network input-impedance profiles
// |Z(f)| over frequency grids, with adjoint parameter sensitivities, and
// optimizes decap placement on the adjoint gradients. It drives the
// complex-valued AC engine in internal/spice over netlists synthesized by
// pkgmodel.PDNGrid, fanning frequencies out across a worker pool — each
// frequency is an independent factor+solve, the embarrassingly parallel
// axis of frequency-domain sign-off.
package pdn

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ssnkit/internal/circuit"
	"ssnkit/internal/par"
	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/spice"
)

// Config tunes a profile run. The zero value is usable.
type Config struct {
	// Workers is the number of parallel frequency evaluators; <= 0 means
	// GOMAXPROCS.
	Workers int
	// Gate, when non-nil, bounds chunk concurrency globally (the serve
	// worker pool implements it), so an impedance sweep embedded in the
	// service shares slots with the rest of the traffic.
	Gate par.Gate
	// WithSens requests adjoint d|Z|/d(param) sensitivities at every
	// frequency (one extra transposed solve each).
	WithSens bool
}

// chunkSize is the number of frequencies per unit of work. Each chunk
// costs one engine stamp+factor per frequency and one Gate slot.
const chunkSize = 16

// Point is the impedance at one frequency, with optional sensitivities.
type Point struct {
	Freq float64    // Hz
	Z    complex128 // ohms
	AbsZ float64    // |Z|, ohms
	// Sens holds adjoint sensitivities d|Z|/d(value) per named element,
	// only when Config.WithSens was set.
	Sens []spice.SensEntry
}

// Profile is an impedance-vs-frequency curve in ascending frequency order.
type Profile struct {
	Points  []Point
	PeakIdx int // index of the largest |Z|
}

// Peak returns the profile point with the largest |Z|.
func (p *Profile) Peak() Point { return p.Points[p.PeakIdx] }

// Sweeper is a reusable sweep context for one PDN grid state. It
// snapshots the grid's netlist at construction and pools compiled AC
// engines across calls, so the one-time costs — netlist synthesis,
// element compilation, and the symbolic factorization analysis of the
// MNA pattern — are paid once per worker for the lifetime of the
// context rather than once per RunProfile call. The same pooled engines
// serve full profile sweeps, the optimizer's golden-section peak
// refinement, and adjoint passes; each borrowed engine keeps its warm
// buffers, so every per-frequency solve after the first is a pure
// restamp+refactor with zero allocations.
//
// A Sweeper is safe for concurrent use; each borrowed engine is private
// to its borrower. Later mutations of the source grid do not affect an
// existing Sweeper — build a new one per grid state.
type Sweeper struct {
	cfg Config
	ckt *circuit.Circuit
	obs int

	mu   sync.Mutex
	idle []*spice.ACEngine
}

// NewSweeper validates the grid, synthesizes its netlist once, and
// compiles the first AC engine so construction surfaces circuit errors
// immediately.
func NewSweeper(grid *pkgmodel.PDNGrid, cfg Config) (*Sweeper, error) {
	if grid == nil {
		return nil, fmt.Errorf("pdn: nil grid")
	}
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	ckt, obs, err := grid.Build()
	if err != nil {
		return nil, err
	}
	s := &Sweeper{cfg: cfg, ckt: ckt, obs: obs}
	eng, err := spice.NewAC(ckt, spice.ACOptions{})
	if err != nil {
		return nil, err
	}
	s.idle = append(s.idle, eng)
	return s, nil
}

// acquire pops a pooled engine or compiles a fresh one. Engines compile
// from the shared netlist snapshot — NewAC only reads it.
func (s *Sweeper) acquire() (*spice.ACEngine, error) {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		eng := s.idle[n-1]
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		return eng, nil
	}
	s.mu.Unlock()
	return spice.NewAC(s.ckt, spice.ACOptions{})
}

// release returns an engine to the pool with its warm buffers intact.
func (s *Sweeper) release(eng *spice.ACEngine) {
	s.mu.Lock()
	s.idle = append(s.idle, eng)
	s.mu.Unlock()
}

// borrow hands a pooled engine (and the observation node) to fn,
// returning it to the pool afterwards. The optimizer's peak refinement
// runs through here so its dozens of point solves hit a warm engine.
func (s *Sweeper) borrow(fn func(eng *spice.ACEngine, obs int) error) error {
	eng, err := s.acquire()
	if err != nil {
		return err
	}
	defer s.release(eng)
	return fn(eng, s.obs)
}

// RunProfile sweeps the grid's input impedance over freqs (ascending, as
// produced by spice.FreqGrid). Each worker borrows a private engine from
// the pool — engines are single-threaded — and frequencies are dealt out
// in chunks, so per-frequency refactorizations dominate and coordination
// cost vanishes. Results are deterministic: the output order is the
// input frequency order regardless of worker count, and the per-point
// values are bit-identical for any worker count or visit order because
// every engine executes the same deterministic refactor sequence.
// RunProfile is run with ascending visit order and bound +Inf, so it
// always sweeps every point.
func (s *Sweeper) RunProfile(ctx context.Context, freqs []float64) (*Profile, error) {
	prof, _, err := s.run(ctx, freqs, nil, math.Inf(1))
	return prof, err
}

// run is the sweep loop behind RunProfile and the optimizer's trial
// sweeps. Frequencies are visited in the given order of indices into
// freqs (nil means ascending), and the sweep stops at the first point
// with |Z| >= bound, reporting exceeded with no profile: the optimizer
// passes the current peak, so a trial that cannot lower it is rejected
// after as few points as its visit order allows. A bound of +Inf never
// stops. The stop is not an error: it releases its Gate slot and cancels
// the other workers, while a real error or a cancellation of ctx still
// takes precedence over it.
func (s *Sweeper) run(ctx context.Context, freqs []float64, order []int, bound float64) (prof *Profile, exceeded bool, err error) {
	if len(freqs) == 0 {
		return nil, false, fmt.Errorf("pdn: empty frequency grid")
	}
	cfg := s.cfg
	// A worker beyond the chunk count would compile an engine and find no
	// chunk to sweep with it.
	nChunks := (len(freqs) + chunkSize - 1) / chunkSize
	workers := par.Workers(cfg.Workers, nChunks)
	bounded := bound < math.Inf(1)
	var stopped atomic.Bool
	points := make([]Point, len(freqs))
	engs := make([]*spice.ACEngine, workers)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The first error wins; fail records it and stops the other workers.
	var errOnce sync.Once
	fail := func(e error) {
		errOnce.Do(func() { err = e })
		cancel()
	}
	par.For(nChunks, workers, func(w int) func(int) {
		eng, aerr := s.acquire()
		if aerr != nil {
			fail(aerr)
			return func(int) {}
		}
		engs[w] = eng
		var sensBuf []spice.SensEntry
		return func(c int) {
			if cfg.Gate != nil {
				if gerr := cfg.Gate.Acquire(cctx); gerr != nil {
					if !stopped.Load() {
						fail(gerr)
					}
					return
				}
				defer cfg.Gate.Release()
			}
			for k := c * chunkSize; k < min((c+1)*chunkSize, len(freqs)) && cctx.Err() == nil; k++ {
				i := k
				if order != nil {
					i = order[k]
				}
				omega := 2 * math.Pi * freqs[i]
				var z complex128
				var zerr error
				if cfg.WithSens {
					z, sensBuf, zerr = eng.ImpedanceSens(omega, s.obs, sensBuf)
					if zerr == nil {
						points[i].Sens = append([]spice.SensEntry(nil), sensBuf...)
					}
				} else {
					z, zerr = eng.Impedance(omega, s.obs)
				}
				if zerr != nil {
					fail(fmt.Errorf("pdn: f=%g Hz: %w", freqs[i], zerr))
					return
				}
				points[i].Freq = freqs[i]
				points[i].Z = z
				points[i].AbsZ = math.Hypot(real(z), imag(z))
				if bounded && points[i].AbsZ >= bound {
					stopped.Store(true)
					cancel()
					return
				}
			}
		}
	})
	for _, eng := range engs {
		if eng != nil {
			s.release(eng)
		}
	}
	if err != nil {
		return nil, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if stopped.Load() {
		return nil, true, nil
	}
	prof = &Profile{Points: points}
	for i := range points {
		if points[i].AbsZ > points[prof.PeakIdx].AbsZ {
			prof.PeakIdx = i
		}
	}
	return prof, false, nil
}

// RunProfile sweeps a grid's input impedance over freqs with a one-shot
// sweep context; see Sweeper.RunProfile. Callers issuing repeated sweeps
// of the same grid state (the optimizer, the service) should hold a
// Sweeper instead.
func RunProfile(ctx context.Context, grid *pkgmodel.PDNGrid, freqs []float64, cfg Config) (*Profile, error) {
	if len(freqs) == 0 {
		return nil, fmt.Errorf("pdn: empty frequency grid")
	}
	sw, err := NewSweeper(grid, cfg)
	if err != nil {
		return nil, err
	}
	return sw.RunProfile(ctx, freqs)
}
