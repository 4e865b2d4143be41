package pdn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"
	"testing"

	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/spice"
)

func testFreqs(t *testing.T, points int) []float64 {
	t.Helper()
	fs, err := spice.FreqGrid(1e6, 10e9, points, true)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestRunProfileMatchesSerial: the parallel profile over seven chunks must
// equal a serial single-engine evaluation bit-for-bit (same stamp, same
// factorization path per frequency).
func TestRunProfileMatchesSerial(t *testing.T) {
	grid := pkgmodel.DefaultPDN(pkgmodel.PGA, 3, 3, 4)
	fs := testFreqs(t, 6*chunkSize+5)
	prof, err := RunProfile(context.Background(), grid, fs, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ckt, obs, err := grid.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := spice.NewAC(ckt, spice.ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Points) != len(fs) {
		t.Fatalf("%d points, want %d", len(prof.Points), len(fs))
	}
	for i, f := range fs {
		z, err := eng.Impedance(2*math.Pi*f, obs)
		if err != nil {
			t.Fatal(err)
		}
		if prof.Points[i].Z != z {
			t.Errorf("f=%g: parallel %v vs serial %v", f, prof.Points[i].Z, z)
		}
		if prof.Points[i].AbsZ != cmplx.Abs(z) && math.Abs(prof.Points[i].AbsZ-cmplx.Abs(z)) > 1e-18 {
			t.Errorf("f=%g: AbsZ %g vs %g", f, prof.Points[i].AbsZ, cmplx.Abs(z))
		}
	}
	// The peak index must point at the max.
	for _, p := range prof.Points {
		if p.AbsZ > prof.Peak().AbsZ {
			t.Errorf("peak missed: %g > %g", p.AbsZ, prof.Peak().AbsZ)
		}
	}
}

// TestRunProfileWithSens: sensitivities arrive for every frequency and
// carry every named R/L/C element.
func TestRunProfileWithSens(t *testing.T) {
	grid := pkgmodel.DefaultPDN(pkgmodel.BGA, 2, 2, 2)
	fs := testFreqs(t, 12)
	prof, err := RunProfile(context.Background(), grid, fs, Config{Workers: 2, WithSens: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range prof.Points {
		if len(p.Sens) == 0 {
			t.Fatalf("point %d has no sensitivities", i)
		}
		if len(p.Sens) != len(prof.Points[0].Sens) {
			t.Fatalf("ragged sensitivity rows: %d vs %d", len(p.Sens), len(prof.Points[0].Sens))
		}
	}
}

// TestRunProfileGate: the gate must be acquired and released in balance,
// and concurrency under the gate, eight chunks on four workers, must never
// exceed its capacity.
func TestRunProfileGate(t *testing.T) {
	grid := pkgmodel.DefaultPDN(pkgmodel.PGA, 2, 2, 2)
	fs := testFreqs(t, 8*chunkSize)
	g := &countingGate{capacity: 2, sem: make(chan struct{}, 2)}
	_, err := RunProfile(context.Background(), grid, fs, Config{Workers: 4, Gate: g})
	if err != nil {
		t.Fatal(err)
	}
	if g.acquires.Load() == 0 {
		t.Error("gate never acquired")
	}
	if a, r := g.acquires.Load(), g.releases.Load(); a != r {
		t.Errorf("unbalanced gate: %d acquires, %d releases", a, r)
	}
	if g.maxInFlight.Load() > int64(g.capacity) {
		t.Errorf("gate overshoot: %d > %d", g.maxInFlight.Load(), g.capacity)
	}
}

type countingGate struct {
	capacity    int
	sem         chan struct{}
	mu          sync.Mutex
	inFlight    int64
	acquires    atomic.Int64
	releases    atomic.Int64
	maxInFlight atomic.Int64
}

func (g *countingGate) Acquire(ctx context.Context) error {
	select {
	case g.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	g.acquires.Add(1)
	g.mu.Lock()
	g.inFlight++
	if g.inFlight > g.maxInFlight.Load() {
		g.maxInFlight.Store(g.inFlight)
	}
	g.mu.Unlock()
	return nil
}

func (g *countingGate) Release() {
	g.mu.Lock()
	g.inFlight--
	g.mu.Unlock()
	g.releases.Add(1)
	<-g.sem
}

// boundedFixture is a small grid with its unbounded reference profile, over
// seven chunks, and the descending-|Z| visit order the optimizer's trial
// sweeps use.
func boundedFixture(t *testing.T) (*pkgmodel.PDNGrid, []float64, *Profile, []int) {
	t.Helper()
	grid := pkgmodel.DefaultPDN(pkgmodel.QFP, 3, 4, 2)
	fs := testFreqs(t, 6*chunkSize+5)
	ref, err := RunProfile(context.Background(), grid, fs, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return grid, fs, ref, descendingAbsZ(ref)
}

func sameProfile(t *testing.T, label string, got, want *Profile) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil profile", label)
	}
	if got.PeakIdx != want.PeakIdx || len(got.Points) != len(want.Points) {
		t.Fatalf("%s: peak %d of %d points, want %d of %d", label, got.PeakIdx, len(got.Points), want.PeakIdx, len(want.Points))
	}
	for i := range want.Points {
		g, w := got.Points[i], want.Points[i]
		if g.Freq != w.Freq || g.Z != w.Z || math.Float64bits(g.AbsZ) != math.Float64bits(w.AbsZ) {
			t.Fatalf("%s: point %d is %v/%v, want %v/%v", label, i, g.Z, g.AbsZ, w.Z, w.AbsZ)
		}
	}
}

// TestRunUnboundedMatchesRunProfile: with bound +Inf the run is the full
// profile, bit for bit, in ascending or descending-|Z| visit order and at
// any worker count.
func TestRunUnboundedMatchesRunProfile(t *testing.T) {
	grid, fs, ref, order := boundedFixture(t)
	for _, workers := range []int{1, 2, 4} {
		sw, err := NewSweeper(grid, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, ord := range [][]int{nil, order} {
			prof, exceeded, err := sw.run(context.Background(), fs, ord, math.Inf(1))
			if err != nil || exceeded {
				t.Fatalf("workers=%d: exceeded=%v err=%v", workers, exceeded, err)
			}
			sameProfile(t, fmt.Sprintf("workers=%d ordered=%v", workers, ord != nil), prof, ref)
		}
	}
}

// TestRunProfileWorkersCapAtChunks: eight points at the default chunk
// size are one chunk, so a profile asked for four workers runs on one
// engine. The pool then holds only the engine NewSweeper compiled, and
// the profile matches one worker's bit for bit.
func TestRunProfileWorkersCapAtChunks(t *testing.T) {
	grid := pkgmodel.DefaultPDN(pkgmodel.PGA, 4, 4, 4)
	fs := testFreqs(t, 8)
	ref, err := RunProfile(context.Background(), grid, fs, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSweeper(grid, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sw.RunProfile(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sw.idle); n != 1 {
		t.Errorf("idle pool holds %d engines after a one-chunk profile, want 1", n)
	}
	sameProfile(t, "workers=4", prof, ref)
}

// TestRunBound: a bound at or just below the peak stops the sweep with
// exceeded and no profile; a bound just above it returns the whole
// profile.
func TestRunBound(t *testing.T) {
	grid, fs, ref, order := boundedFixture(t)
	peak := ref.Peak().AbsZ
	for _, workers := range []int{1, 2, 4} {
		sw, err := NewSweeper(grid, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, ord := range [][]int{nil, order} {
			label := fmt.Sprintf("workers=%d ordered=%v", workers, ord != nil)
			// A bound equal to the peak stops too: the optimizer rejects a
			// trial whose peak ties the current one.
			for _, bound := range []float64{math.Nextafter(peak, 0), peak} {
				prof, exceeded, err := sw.run(context.Background(), fs, ord, bound)
				if err != nil || !exceeded || prof != nil {
					t.Errorf("%s: bound %g vs peak %g gave exceeded=%v prof=%v err=%v", label, bound, peak, exceeded, prof != nil, err)
				}
			}
			prof, exceeded, err := sw.run(context.Background(), fs, ord, math.Nextafter(peak, math.Inf(1)))
			if err != nil || exceeded {
				t.Fatalf("%s: bound above peak gave exceeded=%v err=%v", label, exceeded, err)
			}
			sameProfile(t, label, prof, ref)
		}
	}
}

// TestRunBoundGate: a stop releases every gate slot it took, and the
// workers it cancels leave none held.
func TestRunBoundGate(t *testing.T) {
	grid, fs, ref, order := boundedFixture(t)
	for _, ord := range [][]int{nil, order} {
		g := &countingGate{capacity: 2, sem: make(chan struct{}, 2)}
		sw, err := NewSweeper(grid, Config{Workers: 4, Gate: g})
		if err != nil {
			t.Fatal(err)
		}
		_, exceeded, err := sw.run(context.Background(), fs, ord, math.Nextafter(ref.Peak().AbsZ, 0))
		if err != nil || !exceeded {
			t.Fatalf("exceeded=%v err=%v", exceeded, err)
		}
		if g.acquires.Load() == 0 {
			t.Error("gate never acquired")
		}
		if a, r := g.acquires.Load(), g.releases.Load(); a != r || len(g.sem) != 0 {
			t.Errorf("unbalanced gate after stop: %d acquires, %d releases, %d held", a, r, len(g.sem))
		}
		if g.maxInFlight.Load() > int64(g.capacity) {
			t.Errorf("gate overshoot: %d > %d", g.maxInFlight.Load(), g.capacity)
		}
	}
}

// cancelOnRelease cancels the caller's context when a slot comes back, so
// a bounded run sees its caller cancelled right after it has stopped.
type cancelOnRelease struct{ cancel context.CancelFunc }

func (g cancelOnRelease) Acquire(ctx context.Context) error { return ctx.Err() }
func (g cancelOnRelease) Release()                          { g.cancel() }

// TestRunBoundCancellation: a cancelled caller gets the context error,
// never exceeded — whether it was cancelled before the run or while the
// run was stopping at the bound.
func TestRunBoundCancellation(t *testing.T) {
	grid, fs, ref, order := boundedFixture(t)
	bound := math.Nextafter(ref.Peak().AbsZ, 0)
	sw, err := NewSweeper(grid, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, exceeded, err := sw.run(ctx, fs, order, bound); !errors.Is(err, context.Canceled) || exceeded {
		t.Errorf("pre-cancelled run: exceeded=%v err=%v", exceeded, err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	// The descending-|Z| order visits the peak first, so the run stops in
	// its first chunk and that chunk's release cancels the caller.
	sw, err = NewSweeper(grid, Config{Workers: 1, Gate: cancelOnRelease{cancel}})
	if err != nil {
		t.Fatal(err)
	}
	if _, exceeded, err := sw.run(ctx, fs, order, bound); !errors.Is(err, context.Canceled) || exceeded {
		t.Errorf("cancelled while stopping: exceeded=%v err=%v", exceeded, err)
	}
}

// TestRunReturnsEngines: a run that stops at its bound, is cancelled or
// fails on a NaN frequency still returns both engines it took at two
// workers, so the next two-worker profile compiles none.
func TestRunReturnsEngines(t *testing.T) {
	grid, fs, ref, order := boundedFixture(t)
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	nan := append([]float64{math.NaN()}, fs...)
	for _, c := range []struct {
		name  string
		ctx   context.Context
		freqs []float64
		order []int
		bound float64 // finite: the run must stop; +Inf: it must fail
	}{
		{"bound stop", bg, fs, order, math.Nextafter(ref.Peak().AbsZ, 0)},
		{"cancelled", cancelled, fs, nil, math.Inf(1)},
		{"NaN frequency", bg, nan, nil, math.Inf(1)},
	} {
		sw, err := NewSweeper(grid, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		stop := c.bound < math.Inf(1)
		if _, exceeded, err := sw.run(c.ctx, c.freqs, c.order, c.bound); exceeded != stop || (err == nil) != stop {
			t.Errorf("%s: exceeded=%v err=%v", c.name, exceeded, err)
		}
		if len(sw.idle) != 2 {
			t.Fatalf("%s: idle pool holds %d engines, want the run's 2", c.name, len(sw.idle))
		}
		held := map[*spice.ACEngine]bool{sw.idle[0]: true, sw.idle[1]: true}
		prof, err := sw.RunProfile(bg, fs)
		if err != nil {
			t.Fatal(err)
		}
		sameProfile(t, c.name, prof, ref)
		if len(sw.idle) != 2 || !held[sw.idle[0]] || !held[sw.idle[1]] {
			t.Errorf("%s: the next two-worker profile compiled a new engine", c.name)
		}
	}
}

// TestRunProfileCancellation: a canceled context must abort promptly with
// the context error and no goroutine leak (the -race build watches).
func TestRunProfileCancellation(t *testing.T) {
	grid := pkgmodel.DefaultPDN(pkgmodel.PGA, 4, 4, 6)
	fs := testFreqs(t, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunProfile(ctx, grid, fs, Config{Workers: 4}); err == nil {
		t.Error("canceled run returned nil error")
	}
}

// TestRunProfileErrors: empty grids and invalid inputs.
func TestRunProfileErrors(t *testing.T) {
	grid := pkgmodel.DefaultPDN(pkgmodel.PGA, 2, 2, 2)
	if _, err := RunProfile(context.Background(), grid, nil, Config{}); err == nil {
		t.Error("empty frequency list accepted")
	}
	bad := *grid
	bad.Rows = 0
	if _, err := RunProfile(context.Background(), &bad, testFreqs(t, 4), Config{}); err == nil {
		t.Error("invalid grid accepted")
	}
}

// TestOptimizeDecapsLowersPeak: the acceptance criterion — the greedy
// optimizer must provably lower peak |Z(f)| on a PGA-class grid.
func TestOptimizeDecapsLowersPeak(t *testing.T) {
	grid := pkgmodel.DefaultPDN(pkgmodel.PGA, 3, 3, 4)
	fs := testFreqs(t, 60)
	res, err := OptimizeDecaps(context.Background(), OptimizeSpec{
		Grid:      grid,
		Freqs:     fs,
		DecapC:    2e-9,
		DecapESR:  10e-3,
		MaxDecaps: 4,
		Config:    Config{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placements) == 0 {
		t.Fatal("optimizer placed nothing")
	}
	if !(res.PeakAfter < res.PeakBefore) {
		t.Fatalf("peak |Z| did not drop: before %g, after %g", res.PeakBefore, res.PeakAfter)
	}
	// Each recorded step must decrease monotonically.
	prev := res.PeakBefore
	for i, p := range res.Placements {
		if !(p.PeakAfter < p.PeakBefore) || p.PeakBefore != prev {
			t.Errorf("step %d: before %g after %g (prev %g)", i, p.PeakBefore, p.PeakAfter, prev)
		}
		if p.Grad >= 0 {
			t.Errorf("step %d placed on non-negative gradient %g", i, p.Grad)
		}
		prev = p.PeakAfter
	}
	// The grid's placed decaps must match the placement log.
	placed := 0
	for _, d := range res.Grid.DecapSites {
		if d.C > 0 {
			placed++
		}
	}
	if placed != len(res.Placements) {
		t.Errorf("%d sites hold decaps, %d placements recorded", placed, len(res.Placements))
	}
	// And the final profile must be the profile of the final grid.
	check, err := RunProfile(context.Background(), res.Grid, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if check.Peak().AbsZ != res.PeakAfter {
		t.Errorf("final grid peak %g != reported %g", check.Peak().AbsZ, res.PeakAfter)
	}
}

// TestOptimizeDecapsValidation: bad specs must be rejected.
func TestOptimizeDecapsValidation(t *testing.T) {
	grid := pkgmodel.DefaultPDN(pkgmodel.PGA, 2, 2, 2)
	fs := testFreqs(t, 8)
	cases := []OptimizeSpec{
		{Grid: grid, Freqs: fs, DecapC: 0, DecapESR: 1e-3, MaxDecaps: 1},
		{Grid: grid, Freqs: fs, DecapC: 1e-9, DecapESR: 0, MaxDecaps: 1},
		{Grid: grid, Freqs: fs, DecapC: 1e-9, DecapESR: 1e-3, MaxDecaps: 0},
	}
	for i, spec := range cases {
		if _, err := OptimizeDecaps(context.Background(), spec); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// The input grid must not be mutated by a successful run.
	before := len(grid.DecapSites)
	if _, err := OptimizeDecaps(context.Background(), OptimizeSpec{
		Grid: grid, Freqs: fs, DecapC: 1e-9, DecapESR: 5e-3, MaxDecaps: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if len(grid.DecapSites) != before {
		t.Error("OptimizeDecaps mutated the caller's grid")
	}
	for _, d := range grid.DecapSites {
		if d.C != 0 {
			t.Error("OptimizeDecaps mutated the caller's decap sites")
		}
	}
}

// TestNilGrid: a nil grid is refused with an error by every entry point
// that takes one, never dereferenced.
func TestNilGrid(t *testing.T) {
	fs := testFreqs(t, 4)
	cases := []struct {
		name string
		run  func() error
	}{
		{"NewSweeper", func() error { _, err := NewSweeper(nil, Config{}); return err }},
		{"RunProfile", func() error { _, err := RunProfile(context.Background(), nil, fs, Config{}); return err }},
		{"OptimizeDecaps", func() error {
			_, err := OptimizeDecaps(context.Background(), OptimizeSpec{
				Freqs: fs, DecapC: 1e-9, DecapESR: 5e-3, MaxDecaps: 1,
			})
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); err == nil {
				t.Error("nil grid accepted")
			}
		})
	}
}

// TestOptimizeTrialCounts: every trial ends screened, rejected or
// accepted, and accepted trials are exactly the placements. A mesh small
// enough for the dense engine takes no snapshots, so its screen rejects
// nothing and every rejection comes from the exact sweep.
func TestOptimizeTrialCounts(t *testing.T) {
	fs := testFreqs(t, 40)
	for _, c := range []struct {
		name       string
		rows, cols int
		dense      bool
	}{
		{"dense-2x2", 2, 2, true},
		{"symbolic-5x5", 5, 5, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			grid := pkgmodel.DefaultPDN(pkgmodel.QFP, c.rows, c.cols, 2)
			sw, err := NewSweeper(grid, Config{})
			if err != nil {
				t.Fatal(err)
			}
			var dense bool
			if err := sw.borrow(func(eng *spice.ACEngine, obs int) error {
				var f spice.ACFactor
				ok, err := eng.Snapshot(2*math.Pi*fs[0], obs, &f)
				dense = !ok
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if dense != c.dense {
				t.Fatalf("engine takes snapshots: %v, want %v", !dense, !c.dense)
			}
			res, err := OptimizeDecaps(context.Background(), OptimizeSpec{
				Grid: grid, Freqs: fs, DecapC: 1e-9, DecapESR: 5e-3, MaxDecaps: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Trials
			if tr.Accepted != len(res.Placements) {
				t.Errorf("%d accepted trials, %d placements", tr.Accepted, len(res.Placements))
			}
			if c.dense && tr.Screened != 0 {
				t.Errorf("dense engine screened %d trials", tr.Screened)
			}
			if tr.Screened+tr.Rejected+tr.Accepted == 0 {
				t.Error("no trials counted")
			}
			t.Logf("%+v", tr)
		})
	}
}
