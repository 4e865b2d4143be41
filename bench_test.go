// Benchmarks regenerating the paper's evaluation artifacts (one per figure
// and table — see DESIGN.md §5) plus the performance claims: the closed
// forms cost microseconds where the transistor-level validation costs
// milliseconds per point.
//
// Run with: go test -bench=. -benchmem
package ssnkit_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ssnkit"
	"ssnkit/internal/experiments"
	"ssnkit/internal/linalg"
	"ssnkit/internal/oracle"
	"ssnkit/internal/pdn"
	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/spice"
)

func benchCtx() experiments.Context { return experiments.Context{Fast: true} }

// benchResult prevents dead-code elimination of experiment outputs.
var benchResult interface{}

// BenchmarkFig1IVFit regenerates Fig. 1: golden-device I-V sweep plus the
// ASDM least-squares extraction.
func BenchmarkFig1IVFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		benchResult = r
	}
}

// BenchmarkFig2Waveforms regenerates Fig. 2: the transient simulation of
// the canonical driver array plus the Eq. (6)/(8) waveforms.
func BenchmarkFig2Waveforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		benchResult = r
	}
}

// BenchmarkFig3DriverSweep regenerates Fig. 3: the driver-count sweep with
// simulation and all three analytic models.
func BenchmarkFig3DriverSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		benchResult = r
	}
}

// BenchmarkFig4CapacitanceSweep regenerates Fig. 4: the two capacitance
// sweeps with simulated and closed-form maxima.
func BenchmarkFig4CapacitanceSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		benchResult = r
	}
}

// BenchmarkTable1Cases regenerates Table 1: the four steered scenarios with
// classifier, formula, dense-sampled and simulated maxima.
func BenchmarkTable1Cases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		benchResult = r
	}
}

// BenchmarkAblationDeviceModel regenerates ablation-a: the same ODE with
// three device linearizations against simulation.
func BenchmarkAblationDeviceModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationDeviceModel(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		benchResult = r
	}
}

// BenchmarkAblationResistance regenerates ablation-r: the series-resistance
// sensitivity sweep.
func BenchmarkAblationResistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationResistance(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		benchResult = r
	}
}

func benchParams(b *testing.B) ssnkit.Params {
	b.Helper()
	asdm, err := ssnkit.C018.ExtractASDM()
	if err != nil {
		b.Fatal(err)
	}
	gnd := ssnkit.PGA.Ground(2)
	return ssnkit.Params{
		N: 16, Dev: asdm, Vdd: ssnkit.C018.Vdd,
		Slope: ssnkit.C018.Vdd / 1e-9, L: gnd.L, C: gnd.C,
	}
}

// BenchmarkClosedFormVsSim/closed-form vs /transient-sim quantifies the
// paper's "simple formula" pitch: both answer the same question (max SSN of
// one scenario); the closed form is several orders of magnitude faster.
func BenchmarkClosedFormVsSim(b *testing.B) {
	p := benchParams(b)
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, _, err := ssnkit.MaxSSN(p)
			if err != nil {
				b.Fatal(err)
			}
			benchResult = v
		}
	})
	b.Run("transient-sim", func(b *testing.B) {
		cfg := ssnkit.ArrayConfig{
			Process: ssnkit.C018, N: 16, Load: 20e-12,
			Ground: ssnkit.PGA.Ground(2), Rise: 1e-9, Merged: true,
		}
		for i := 0; i < b.N; i++ {
			res, err := ssnkit.Simulate(cfg, ssnkit.SimOptions{}, 1e-9/200, 0)
			if err != nil {
				b.Fatal(err)
			}
			benchResult = res.MaxSSN
		}
	})
}

// BenchmarkMaxSSN measures one closed-form evaluation (Params -> Table 1
// case + maximum), the unit of work inside every sweep.
func BenchmarkMaxSSN(b *testing.B) {
	p := benchParams(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, _, err := ssnkit.MaxSSN(p)
		if err != nil {
			b.Fatal(err)
		}
		benchResult = v
	}
}

// BenchmarkASDMExtraction measures the device-model fit alone.
func BenchmarkASDMExtraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := ssnkit.C018.ExtractASDM()
		if err != nil {
			b.Fatal(err)
		}
		benchResult = m
	}
}

// BenchmarkTransientRLC measures the raw simulator on a linear RLC step
// (no Newton iterations beyond the linear solve).
func BenchmarkTransientRLC(b *testing.B) {
	deckText := `rlc step
v1 in 0 pulse(0 1 0 1p 1p 10n 0)
r1 in n1 5
l1 n1 n2 5n
c1 n2 0 1p
.tran 1p 2n
.end
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		deck, err := ssnkit.ParseNetlist(strings.NewReader(deckText))
		if err != nil {
			b.Fatal(err)
		}
		tran, _, err := ssnkit.RunDeck(deck, ssnkit.SimOptions{})
		if err != nil {
			b.Fatal(err)
		}
		benchResult = tran
	}
}

// BenchmarkLUSolve measures the dense LU factor+solve at MNA-typical sizes.
func BenchmarkLUSolve(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(sizeName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := linalg.NewMatrix(n, n)
			rhs := make([]float64, n)
			for i := 0; i < n; i++ {
				sum := 0.0
				for j := 0; j < n; j++ {
					v := rng.NormFloat64()
					a.Set(i, j, v)
					if v < 0 {
						sum -= v
					} else {
						sum += v
					}
				}
				a.Set(i, i, sum+1)
				rhs[i] = rng.NormFloat64()
			}
			lu := linalg.NewDenseLU[float64](n)
			x := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lu.Factor(a.Data); err != nil {
					b.Fatal(err)
				}
				if err := lu.Solve(rhs, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchACEngine compiles a rows x cols PGA power-delivery mesh for AC
// benchmarks and returns the engine plus the die observation node.
func benchACEngine(b *testing.B, rows, cols int) (*spice.ACEngine, int) {
	b.Helper()
	grid := pkgmodel.DefaultPDN(pkgmodel.PGA, rows, cols, 4)
	ckt, obs, err := grid.Build()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := spice.NewAC(ckt, spice.ACOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return eng, obs
}

// benchACFreqs is a small log grid cycled across iterations so every solve
// pays for a fresh factorization rather than reusing the cached one.
func benchACFreqs(b *testing.B) []float64 {
	b.Helper()
	freqs, err := spice.FreqGrid(1e6, 1e10, 16, true)
	if err != nil {
		b.Fatal(err)
	}
	return freqs
}

// BenchmarkACSolve measures one complex factor+solve of the PDN mesh per
// iteration at mesh sizes bracketing typical package models.
func BenchmarkACSolve(b *testing.B) {
	for _, rc := range []int{4, 8, 16} {
		b.Run(meshName(rc), func(b *testing.B) {
			eng, obs := benchACEngine(b, rc, rc)
			freqs := benchACFreqs(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				omega := 2 * math.Pi * freqs[i%len(freqs)]
				z, err := eng.Impedance(omega, obs)
				if err != nil {
					b.Fatal(err)
				}
				benchResult = real(z)
			}
		})
	}
}

// BenchmarkACSolvePivoted measures one factor+solve per iteration on the
// pivoted sparse backend (forced ACSparse), the path an engine takes for
// voltage-source patterns and after a cancelled static pivot. It reports
// its allocations, which BENCH_spice.json caps at zero; as in ACSweep a
// float64 accumulator keeps the boxing of benchResult out of the loop.
func BenchmarkACSolvePivoted(b *testing.B) {
	for _, rc := range []int{16} {
		b.Run(meshName(rc), func(b *testing.B) {
			ckt, obs, err := pkgmodel.DefaultPDN(pkgmodel.PGA, rc, rc, 4).Build()
			if err != nil {
				b.Fatal(err)
			}
			eng, err := spice.NewAC(ckt, spice.ACOptions{Backend: spice.ACSparse})
			if err != nil {
				b.Fatal(err)
			}
			freqs := benchACFreqs(b)
			var acc float64
			point := func(i int) {
				z, err := eng.Impedance(2*math.Pi*freqs[i%len(freqs)], obs)
				if err != nil {
					b.Fatal(err)
				}
				acc += real(z)
			}
			// One pass over the list sizes the factorization's buffers to
			// every pivot sequence the sweep meets; after it a point must
			// not allocate.
			for i := range freqs {
				point(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				point(i)
			}
			b.StopTimer()
			benchResult = acc
		})
	}
}

// BenchmarkAdjoint measures the full adjoint sensitivity pass: forward
// solve, transpose solve, and the per-element gradient accumulation.
func BenchmarkAdjoint(b *testing.B) {
	for _, rc := range []int{4, 8, 16} {
		b.Run(meshName(rc), func(b *testing.B) {
			eng, obs := benchACEngine(b, rc, rc)
			freqs := benchACFreqs(b)
			var sens []spice.SensEntry
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				omega := 2 * math.Pi * freqs[i%len(freqs)]
				z, out, err := eng.ImpedanceSens(omega, obs, sens[:0])
				if err != nil {
					b.Fatal(err)
				}
				sens = out
				benchResult = real(z)
			}
		})
	}
}

// BenchmarkACSweep measures the production sweep shape: one op is a full
// frequency-grid pass on a reused engine, so the symbolic analysis and the
// operand stamping are paid once and each point costs only a numeric
// refactor. The per-frequency loop must not allocate (gated via
// max_allocs_per_op in BENCH_spice.json); the float64 accumulator keeps
// interface boxing of benchResult out of the timed region.
func BenchmarkACSweep(b *testing.B) {
	for _, rc := range []int{4, 8, 16} {
		b.Run(meshName(rc), func(b *testing.B) {
			eng, obs := benchACEngine(b, rc, rc)
			freqs := benchACFreqs(b)
			var acc float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range freqs {
					z, err := eng.Impedance(2*math.Pi*f, obs)
					if err != nil {
						b.Fatal(err)
					}
					acc += real(z)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(freqs)), "ns/point")
			benchResult = acc
		})
	}
}

// BenchmarkACCompile measures compiling a PGA power-delivery mesh for AC
// analysis: stamp-plan construction and the symbolic analysis (ordering,
// fill, update map) that every fresh engine, and so every accepted decap
// trial, pays once. 64x64 is the largest mesh the service admits.
// max_allocs_per_op in BENCH_spice.json caps the analysis allocations.
func BenchmarkACCompile(b *testing.B) {
	for _, rc := range []int{8, 16, 64} {
		b.Run(meshName(rc), func(b *testing.B) {
			ckt, _, err := pkgmodel.DefaultPDN(pkgmodel.PGA, rc, rc, 4).Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := spice.NewAC(ckt, spice.ACOptions{})
				if err != nil {
					b.Fatal(err)
				}
				benchResult = eng
			}
		})
	}
}

// BenchmarkOptimizeDecaps measures greedy decap placement on three members
// of the optimize benchmark suite (60 log-spaced points, 1 MHz-10 GHz,
// 5 mΩ unit decaps) at one worker: the 5x8 QFP retires many trial sites
// and places nothing, the 8x7 COB places four decaps, and the 4x4 PGA is
// the smallest mesh. One op is one full OptimizeDecaps run, so the gate
// covers pricing, trial sweeps and per-trial compiles together.
func BenchmarkOptimizeDecaps(b *testing.B) {
	freqs, err := spice.FreqGrid(1e6, 1e10, 60, true)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name             string
		pkg              pkgmodel.Package
		rows, cols, pads int
		decapNF          float64
		maxDecaps        int
	}{
		{"qfp-5x8", pkgmodel.QFP, 5, 8, 6, 1.5, 2},
		{"cob-8x7", pkgmodel.COB, 8, 7, 2, 1, 4},
		{"pga-4x4", pkgmodel.PGA, 4, 4, 2, 1, 2},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			spec := pdn.OptimizeSpec{
				Grid:      pkgmodel.DefaultPDN(c.pkg, c.rows, c.cols, c.pads),
				Freqs:     freqs,
				DecapC:    1e-9 * c.decapNF,
				DecapESR:  5e-3,
				MaxDecaps: c.maxDecaps,
				Config:    pdn.Config{Workers: 1},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := pdn.OptimizeDecaps(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				benchResult = res.PeakAfter
			}
		})
	}
}

func meshName(rc int) string {
	return fmt.Sprintf("mesh=%dx%d", rc, rc)
}

func sizeName(n int) string {
	switch n {
	case 8:
		return "n=8"
	case 32:
		return "n=32"
	default:
		return "n=128"
	}
}

// BenchmarkResonanceSweep regenerates the ext-resonance artifact (repeated
// switching on an under-damped ground net).
func BenchmarkResonanceSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Resonance(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		benchResult = r
	}
}

// BenchmarkTransientTLine measures a transmission-line transient with
// multiple reflections.
func BenchmarkTransientTLine(b *testing.B) {
	deckText := `bounce ladder
v1 src 0 pulse(0 1 0.1n 1p 1p 100n 0)
rs src near 25
t1 near 0 far 0 z0=50 td=1n
rl far 0 100
.tran 20p 8n uic
.end
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		deck, err := ssnkit.ParseNetlist(strings.NewReader(deckText))
		if err != nil {
			b.Fatal(err)
		}
		tran, _, err := ssnkit.RunDeck(deck, ssnkit.SimOptions{})
		if err != nil {
			b.Fatal(err)
		}
		benchResult = tran
	}
}

// BenchmarkAdaptiveVsFixed compares adaptive LTE stepping against the fixed
// grid on the canonical SSN transient.
func BenchmarkAdaptiveVsFixed(b *testing.B) {
	cfg := ssnkit.ArrayConfig{
		Process: ssnkit.C018, N: 16, Load: 20e-12,
		Ground: ssnkit.PGA.Ground(1), Rise: 1e-9, Merged: true,
	}
	b.Run("fixed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := ssnkit.Simulate(cfg, ssnkit.SimOptions{}, 2.5e-12, 0)
			if err != nil {
				b.Fatal(err)
			}
			benchResult = res
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := ssnkit.Simulate(cfg, ssnkit.SimOptions{Adaptive: true, LTETol: 1e-4}, 2e-11, 0)
			if err != nil {
				b.Fatal(err)
			}
			benchResult = res
		}
	})
}

// BenchmarkOracleCheck runs the differential oracle (closed form against
// the ASDM transient) over the first 16 points of campaign seed 1: the
// transient path of the paper's own device model, explicit and merged
// arrays across every Table 1 case. Its allocations are gated via
// max_allocs_per_op in BENCH_spice.json: the check keeps one peak, not the
// waveforms, so a return to full recording fails the cap.
func BenchmarkOracleCheck(b *testing.B) {
	const points = 16
	pts := make([]oracle.DesignPoint, points)
	for i := range pts {
		pt, ok := oracle.Generate(1, i)
		if !ok {
			b.Fatalf("generator exhausted at index %d", i)
		}
		pts[i] = pt
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range pts {
			res := oracle.Check(pt, spice.Options{})
			if res.Err != nil || !res.Pass {
				b.Fatal(res)
			}
			benchResult = res.Sim
		}
	}
}

// BenchmarkOracleCheckStiff runs the differential oracle over the
// pole-bound points among the first 64 of campaign seed 1 (the
// points64-seed1 campaign): the points whose fixed step the fastest
// natural pole would set, which oracle.Simulate steps under LTE control
// from the window/cycle step instead.
func BenchmarkOracleCheckStiff(b *testing.B) {
	var pts []oracle.DesignPoint
	for i := 0; i < 64; i++ {
		pt, ok := oracle.Generate(1, i)
		if !ok {
			b.Fatalf("generator exhausted at index %d", i)
		}
		if oracle.PoleBound(pt) {
			pts = append(pts, pt)
		}
	}
	if len(pts) == 0 {
		b.Fatal("no pole-bound point among the first 64 of seed 1")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range pts {
			res := oracle.Check(pt, spice.Options{})
			if res.Err != nil || !res.Pass {
				b.Fatal(res)
			}
			benchResult = res.Sim
		}
	}
}

// BenchmarkMonteCarlo measures the statistical sign-off loop (1000 corners
// through the four-case closed form).
func BenchmarkMonteCarlo(b *testing.B) {
	p := benchParams(b)
	v := ssnkit.Variation{K: 0.05, L: 0.1, C: 0.08, Slope: 0.07}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := ssnkit.MonteCarlo(p, v, 1000, 7)
		if err != nil {
			b.Fatal(err)
		}
		benchResult = r
	}
}

// BenchmarkMonteCarloSerial pins the single-worker baseline of the
// parallelized sampler, so the speedup of the pooled version below is
// visible in one bench run.
func BenchmarkMonteCarloSerial(b *testing.B) {
	p := benchParams(b)
	v := ssnkit.Variation{K: 0.05, L: 0.1, C: 0.08, Slope: 0.07}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := ssnkit.MonteCarloCtx(context.Background(), p, v, 20000, 7, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchResult = r
	}
}

// BenchmarkMonteCarloParallel runs the same workload across the
// GOMAXPROCS worker pool with per-worker RNG streams.
func BenchmarkMonteCarloParallel(b *testing.B) {
	p := benchParams(b)
	v := ssnkit.Variation{K: 0.05, L: 0.1, C: 0.08, Slope: 0.07}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := ssnkit.MonteCarloCtx(context.Background(), p, v, 20000, 7, runtime.GOMAXPROCS(0))
		if err != nil {
			b.Fatal(err)
		}
		benchResult = r
	}
}

// BenchmarkStaggered measures the non-simultaneous-switching integrator.
func BenchmarkStaggered(b *testing.B) {
	p := benchParams(b)
	offs := ssnkit.UniformStagger(p.N, 0.2e-9)
	for i := 0; i < b.N; i++ {
		s, err := ssnkit.NewStaggered(p, offs)
		if err != nil {
			b.Fatal(err)
		}
		_, v, err := s.VMax()
		if err != nil {
			b.Fatal(err)
		}
		benchResult = v
	}
}
